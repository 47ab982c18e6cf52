package sst

import (
	"fmt"
	"os"
	"testing"

	"wren/internal/hlc"
)

// TestGCPassCostFollowsWrites is the count gate on the GC pass: what a
// pass examines and reads follows what was written since the last one, not
// what is stored. Counts, not a clock — this is what keeps a pass that
// streams every run file from coming back.
func TestGCPassCostFollowsWrites(t *testing.T) {
	const stored, rewritten = 4096, 32
	opts := Options{
		Dir: t.TempDir(), Shards: 4,
		FlushBytes: -1, CompactRuns: -1,
	}
	e := mustOpen(t, opts)
	defer func() { _ = e.Close() }()
	key := func(i int) string { return fmt.Sprintf("k-%05d", i) }

	// 4 096 keys in one compacted run, 256 others in a second run on top.
	for i := 0; i < stored; i++ {
		e.Put(key(i), v("v1", hlc.Timestamp(1+i), uint64(i)))
		if i%1024 == 1023 {
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.Compact()
	for i := 0; i < 256; i++ {
		e.Put(key(stored+i), v("v1", hlc.Timestamp(5000+i), uint64(stored+i)))
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := e.Runs(); got != 2 {
		t.Fatalf("Runs() = %d, want 2", got)
	}
	m := e.Metrics()
	pass := func(floor hlc.Timestamp) (visited, blocks int64, removed int) {
		t.Helper()
		v0, b0 := m.GCVisited(), m.BlockReads()
		removed = e.GCStats(floor).Removed
		return m.GCVisited() - v0, m.BlockReads() - b0, removed
	}
	// Settle whatever the flushes filed as pending (Bloom false positives
	// against the older runs).
	pass(6000)
	if got := m.GCPending(); got != 0 {
		t.Fatalf("GCPending() = %d with one value version per key, want 0", got)
	}

	admitting := int64(0) // runs whose filter admits an overwritten key
	for i := 0; i < rewritten; i++ {
		k := key(i * (stored / rewritten))
		e.Put(k, v("v2", hlc.Timestamp(7000+i), uint64(10000+i)))
		for _, r := range e.tabs.Load().runs {
			if r.filter.mayContain(k) {
				admitting++
			}
		}
	}

	// Floor under the overwrites: each key is examined, nothing can go yet.
	visited, blocks, removed := pass(6500)
	if visited != rewritten || removed != 0 {
		t.Fatalf("pass after %d overwrites of %d stored keys: examined %d keys, removed %d; want %d and 0", rewritten, stored, visited, removed, rewritten)
	}
	if blocks > 2*admitting {
		t.Fatalf("pass read %d blocks for %d examined keys (%d admitting runs in all), want at most 2 per key per admitting run", blocks, visited, admitting)
	}
	if got := m.GCPending(); got != rewritten {
		t.Fatalf("GCPending() = %d, want the %d keys holding two live versions", got, rewritten)
	}
	// Floor advanced, nothing written: only what was left unsettled.
	visited, _, removed = pass(8000)
	if visited != rewritten || removed != rewritten {
		t.Fatalf("second pass: examined %d keys, removed %d; want %d and %d", visited, removed, rewritten, rewritten)
	}
	if got := m.GCPending(); got != 0 {
		t.Fatalf("GCPending() = %d after the floor passed every overwrite, want 0", got)
	}
	if visited, blocks, _ = pass(9000); visited != 0 || blocks != 0 {
		t.Fatalf("third pass: examined %d keys, read %d blocks; want 0 and 0", visited, blocks)
	}

	// The overlay cuts are not persisted: the first pass after a reopen
	// streams everything once to rebuild them, the second does not.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e = mustOpen(t, opts)
	m = e.Metrics()
	visited, _, removed = pass(9000)
	if visited != stored+256 || removed != rewritten {
		t.Fatalf("first pass after reopen: examined %d keys, removed %d; want all %d and %d", visited, removed, stored+256, rewritten)
	}
	if visited, blocks, _ = pass(9500); visited != 0 || blocks != 0 {
		t.Fatalf("second pass after reopen: examined %d keys, read %d blocks; want 0 and 0", visited, blocks)
	}
}

// TestWriteListsDrainWithoutRuns: an engine that never flushes runs the
// pure-memtable pass, which must still drain the write lists.
func TestWriteListsDrainWithoutRuns(t *testing.T) {
	e := mustOpen(t, Options{Dir: t.TempDir(), Shards: 4, FlushBytes: -1})
	defer func() { _ = e.Close() }()
	const perPass = 10_000
	for i := 0; i < 100_000; i++ {
		e.Put(fmt.Sprintf("k-%06d", i), v("x", hlc.Timestamp(1+i), uint64(i)))
		if i%perPass != perPass-1 {
			continue
		}
		listed := 0
		for si := range e.stripes {
			e.stripes[si].mu.Lock()
			listed += len(e.written[si])
			e.stripes[si].mu.Unlock()
		}
		if listed > perPass {
			t.Fatalf("after %d puts the write lists hold %d keys, want at most the %d since the last pass", i+1, listed, perPass)
		}
		e.GCStats(hlc.Timestamp(i))
	}
}

// TestFailedFlushFallsBackToFullPass: the freeze of a flush drops the write
// lists because writeRun takes the keys over. When the run cannot be
// written, nothing did — the next pass must look at everything.
func TestFailedFlushFallsBackToFullPass(t *testing.T) {
	e := mustOpen(t, Options{Dir: t.TempDir(), Shards: 2, FlushBytes: -1, CompactRuns: -1})
	defer func() { _ = e.Close() }()
	e.Put("a", v("a1", 1, 1))
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	e.GCStats(0)
	e.Put("a", v("a2", 10, 2)) // a now has two live versions: one in the run, one in the memtable
	e.Put("b", v("b1", 11, 3))

	blocker := e.runPath(e.minGen, e.gen) + ".tmp" // a directory where the run's temp file goes
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err == nil {
		t.Fatal("Flush succeeded over a blocked temp path")
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	v0 := e.Metrics().GCVisited()
	if res := e.GCStats(20); res.Removed != 1 {
		t.Fatalf("GCStats after a failed flush removed %d versions, want a's first", res.Removed)
	}
	if got := e.Metrics().GCVisited() - v0; got != 2 {
		t.Fatalf("pass after a failed flush examined %d keys, want both", got)
	}
	if got := e.VersionsOf("a"); got != 1 {
		t.Fatalf("VersionsOf(a) = %d, want 1", got)
	}
}
