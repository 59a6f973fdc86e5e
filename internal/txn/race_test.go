//go:build race

package txn

// raceEnabled reports a -race build, whose instrumentation allocates and
// whose sync.Pool drops items at random.
const raceEnabled = true
