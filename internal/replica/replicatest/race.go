//go:build race

package replicatest

// raceEnabled reports a -race build, whose sync.Pool instrumentation adds
// bookkeeping allocations that would fail the exact allocation pins.
const raceEnabled = true
