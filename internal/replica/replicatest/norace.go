//go:build !race

package replicatest

const raceEnabled = false
