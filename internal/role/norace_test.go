//go:build !race

package role

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = false
