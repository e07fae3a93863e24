//go:build race

package harness_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
