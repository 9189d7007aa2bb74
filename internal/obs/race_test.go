//go:build race

package obs

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
