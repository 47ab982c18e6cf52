//go:build !race

package tcp

const raceEnabled = false
