//go:build !race

package cover

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
