//go:build !race

package pubsub

// raceEnabled reports a -race build, whose sync.Pool drops a share of
// its Puts at random, so pooled scratch allocates now and then.
const raceEnabled = false
