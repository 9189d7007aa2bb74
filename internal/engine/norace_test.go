//go:build !race

package engine

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
