//go:build !race

package distalgo

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
