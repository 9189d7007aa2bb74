//go:build !race

package domset

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
