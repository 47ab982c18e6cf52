//go:build !race

package sst

const raceEnabled = false
