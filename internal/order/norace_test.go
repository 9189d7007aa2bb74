//go:build !race

package order

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
