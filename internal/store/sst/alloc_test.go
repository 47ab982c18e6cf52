package sst

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"wren/internal/hlc"
	"wren/internal/store"
)

// runResident opens an engine whose n keys (64-byte values) all live in
// runs, split over the given number of runs by key index, so every run
// spans the whole key range.
func runResident(t *testing.T, n, runs int) *Engine {
	t.Helper()
	e := mustOpen(t, Options{Dir: t.TempDir(), Shards: 4, FlushBytes: -1, CompactRuns: -1})
	t.Cleanup(func() { _ = e.Close() })
	val := make([]byte, 64)
	for r := 0; r < runs; r++ {
		for i := r; i < n; i += runs {
			ut := hlc.Timestamp(1 + i)
			e.Put(allocKey(i), &store.Version{Value: val, UT: ut, RDT: ut, TxID: uint64(ut)})
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func allocKey(i int) string { return fmt.Sprintf("k-%06d", i) }

// TestRunReadAllocs pins what a read answered from runs allocates: one
// version slab and one value arena per call, whatever the number of keys
// (it was a key string, a version and a value per key).
func TestRunReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation pins are meaningless under -race (sync.Pool drops the probe scratch)")
	}
	const n = 4096
	e := runResident(t, n, 1)
	all := make([]string, n)
	for i := range all {
		all[i] = allocKey(i)
	}
	r := rand.New(rand.NewSource(1))
	keys := make([]string, 8)
	out := make([]*store.Version, len(keys))
	batch := testing.AllocsPerRun(100, func() {
		for i := range keys {
			keys[i] = all[r.Intn(n)]
		}
		out = e.ReadVisibleBatchInto(keys, alwaysVisible, out)
		for i, v := range out {
			if v == nil || len(v.Value) != 64 {
				t.Fatalf("%s read %+v, want its 64-byte value", keys[i], v)
			}
		}
	})
	one := testing.AllocsPerRun(100, func() {
		if v := e.ReadVisible(keys[0], alwaysVisible); v == nil || len(v.Value) != 64 {
			t.Fatalf("%s read %+v, want its 64-byte value", keys[0], v)
		}
	})
	t.Logf("ReadVisibleBatchInto of 8 keys: %.2f allocations; ReadVisible: %.2f", batch, one)
	if batch > 2 {
		t.Errorf("ReadVisibleBatchInto of 8 run-resident keys allocates %.2f times per call, want at most 2", batch)
	}
	if one > 2 {
		t.Errorf("ReadVisible of a run-resident key allocates %.2f times, want at most 2", one)
	}
}

// TestRunScanAllocs: a 64-key Scan over runs pays for each key it yields
// its key string and a share of the chunks its copies come from — at most
// two allocations per key (it was three per record read).
func TestRunScanAllocs(t *testing.T) {
	e := runResident(t, 4096, 2)
	allocs := testing.AllocsPerRun(50, func() {
		got := 0
		if err := e.Scan(allocKey(1000), "", alwaysVisible, func(_ string, v *store.Version) bool {
			if len(v.Value) != 64 {
				t.Fatalf("scan yielded %+v, want a 64-byte value", v)
			}
			got++
			return got < 64
		}); err != nil {
			t.Fatal(err)
		}
		if got != 64 {
			t.Fatalf("scan yielded %d keys, want 64", got)
		}
	})
	t.Logf("a 64-key scan over two runs: %.2f allocations per key", allocs/64)
	if allocs/64 > 2 {
		t.Fatalf("a 64-key scan over two runs allocates %.2f times per key, want at most 2", allocs/64)
	}
}

// TestCompactionAllocs: compaction re-encodes records without
// materializing them, so merging four runs costs about one allocation per
// key — the key string of its chain — at any size, not three per record.
func TestCompactionAllocs(t *testing.T) {
	for _, n := range []int{1024, 16384} {
		e := runResident(t, n, 4)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e.Compact()
		runtime.ReadMemStats(&after)
		if e.Runs() != 1 {
			t.Fatalf("Compact left %d runs, want 1", e.Runs())
		}
		perKey := float64(after.Mallocs-before.Mallocs) / float64(n)
		t.Logf("compacting %d keys over 4 runs: %.2f allocations per key", n, perKey)
		if perKey > 1.25 {
			t.Errorf("compacting %d keys over 4 runs allocates %.2f times per key, want about 1", n, perKey)
		}
		if err := e.Healthy(); err != nil {
			t.Fatal(err)
		}
	}
}
