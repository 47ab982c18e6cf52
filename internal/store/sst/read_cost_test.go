package sst

import (
	"fmt"
	"math/rand"
	"testing"

	"wren/internal/hlc"
	"wren/internal/store"
	"wren/internal/store/enginetest"
)

// TestScanCostFollowsLimit: a scan that stops after 64 keys costs the same
// allocations over a 1 024-key memtable as over a 65 536-key one — the
// memtable side walks the ordered key index from start, it does not copy
// every stripe's key set.
func TestScanCostFollowsLimit(t *testing.T) {
	allocs := func(n int) float64 {
		e := mustOpen(t, Options{Dir: t.TempDir(), FlushBytes: -1, CompactRuns: -1})
		defer e.Close()
		val := []byte("v")
		kvs := make([]store.KV, 0, 1024)
		for i := 0; i < n; i++ {
			ut := hlc.Timestamp(1 + i)
			kvs = append(kvs, store.KV{Key: fmt.Sprintf("k-%06d", i), Version: &store.Version{Value: val, UT: ut, RDT: ut, TxID: uint64(ut)}})
			if len(kvs) == cap(kvs) {
				e.PutBatch(kvs)
				kvs = kvs[:0]
			}
		}
		start := fmt.Sprintf("k-%06d", n/2)
		return testing.AllocsPerRun(50, func() {
			got := 0
			_ = e.Scan(start, "", alwaysVisible, func(string, *store.Version) bool { got++; return got < 64 })
			if got != 64 {
				t.Fatalf("scan yielded %d keys, want 64", got)
			}
		})
	}
	if small, large := allocs(1024), allocs(65536); small != large {
		t.Fatalf("a 64-key scan allocates %.0f times over 1 024 memtable keys and %.0f over 65 536: its cost follows the memtable's size", small, large)
	}
}

// TestScanDuringInserts: the shared race test on an engine that flushes
// and compacts under it, so scans merge the active and frozen memtables'
// key indexes with run cursors while the key set changes.
func TestScanDuringInserts(t *testing.T) {
	enginetest.ScanDuringInserts(t, mustOpen(t, Options{
		Dir: t.TempDir(), Shards: 4,
		FlushBytes: 16 << 10, CompactRuns: 3,
	}))
}

// TestPointReadRecordsChecked pins what a point read that misses the
// memtable checksums: one run of 4 096 keys with 1 KiB values, then random
// point reads, each probing one block. A probe walks its block from the
// first record to the one past the key's chain, CRC-checking each. At the
// default 4 KiB blocks (3 records each) this measured 2.67 records per
// probe; 16 KiB blocks (15 records) measured 8.96 with the same reads.
func TestPointReadRecordsChecked(t *testing.T) {
	const nKeys, reads = 4096, 4096
	e := mustOpen(t, Options{Dir: t.TempDir(), Shards: 4, FlushBytes: -1, CompactRuns: -1})
	defer e.Close()
	key := func(i int) string { return fmt.Sprintf("k-%06d", i) }
	val := make([]byte, 1024)
	for i := 0; i < nKeys; i++ {
		ut := hlc.Timestamp(1 + i)
		e.Put(key(i), &store.Version{Value: val, UT: ut, RDT: ut, TxID: uint64(ut)})
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	b0, c0 := m.BlockReads(), int64(e.recordsChecked.Load())
	r := rand.New(rand.NewSource(1))
	for i := 0; i < reads; i++ {
		if e.ReadVisible(key(r.Intn(nKeys)), alwaysVisible) == nil {
			t.Fatal("a flushed key reads absent")
		}
	}
	blocks, checked := m.BlockReads()-b0, int64(e.recordsChecked.Load())-c0
	if blocks != reads {
		t.Fatalf("%d point reads probed %d blocks, want one each", reads, blocks)
	}
	if mean := float64(checked) / float64(blocks); mean > 3 {
		t.Fatalf("a point read CRC-checked %.2f records per block probe, want at most 3 (4 KiB blocks)", mean)
	} else {
		t.Logf("%.2f records checked per block probe", mean)
	}
}
