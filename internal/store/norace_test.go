//go:build !race

package store

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
