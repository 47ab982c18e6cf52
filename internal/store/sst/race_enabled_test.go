//go:build race

package sst

// raceEnabled reports a -race build, whose sync.Pool drops pooled probe
// scratch at random: exact allocation pins on pooled paths skip there.
const raceEnabled = true
