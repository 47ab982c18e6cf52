package store_test

import (
	"testing"

	"wren/internal/store"
	"wren/internal/store/enginetest"
)

// TestMemoryEngineConformance runs the shared engine conformance suite
// against the in-memory lock-striped engine, at the default and a tiny
// shard count (the tiny count forces heavy intra-shard contention).
func TestMemoryEngineConformance(t *testing.T) {
	enginetest.Run(t, func(t *testing.T) store.Engine {
		return store.NewMemoryEngine(0)
	})
}

func TestMemoryEngineConformanceOneShard(t *testing.T) {
	enginetest.Run(t, func(t *testing.T) store.Engine {
		return store.NewMemoryEngine(1)
	})
}

// TestScanDuringInserts: scans over the ordered key index while a writer
// inserts keys and GC drops them.
func TestScanDuringInserts(t *testing.T) {
	enginetest.ScanDuringInserts(t, store.NewMemoryEngine(0))
}
