//go:build race

package wire

// raceEnabled reports a -race build, whose instrumentation and sync.Pool
// drops add allocations that exact allocation bounds would count.
const raceEnabled = true
