//go:build race

package tcp

// raceEnabled reports a -race build, where copying a 64 KiB frame costs
// hundreds of times what it does otherwise.
const raceEnabled = true
