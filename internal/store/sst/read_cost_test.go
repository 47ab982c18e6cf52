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
// first record to the key's chain, CRC-checking each, and stops at the
// chain's first visible record. At the default 4 KiB blocks (3 records
// each) that is 2.00 records per probe; walking on to the record past the
// chain, as format 2 did, measured 2.67, and 16 KiB blocks (15 records)
// measured 8.96.
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
	if mean := float64(checked) / float64(blocks); mean > 2.2 {
		t.Fatalf("a point read CRC-checked %.2f records per block probe, want at most 2.2 (4 KiB blocks)", mean)
	} else {
		t.Logf("%.2f records checked per block probe", mean)
	}
}

// TestHotChainProbeStopsAtNewestVisible pins that a probe pays for the
// version it returns, not for the chain: one run holds key "hot" with 256
// versions of 1 KiB (UT 1..256) between neighbours, and the chain starts
// its own block, so every record a probe checks is one of the chain's.
// Format 2, which stored chains oldest first, checked all 256 each time.
func TestHotChainProbeStopsAtNewestVisible(t *testing.T) {
	e := mustOpen(t, Options{Dir: t.TempDir(), Shards: 2, FlushBytes: -1, CompactRuns: -1})
	defer e.Close()
	val := make([]byte, 1024)
	for i := 0; i < 8; i++ {
		e.Put(fmt.Sprintf("hos-%d", i), &store.Version{Value: val, UT: 1, RDT: 1, TxID: uint64(1000 + i)})
		e.Put(fmt.Sprintf("hou-%d", i), &store.Version{Value: val, UT: 1, RDT: 1, TxID: uint64(2000 + i)})
	}
	for ut := hlc.Timestamp(1); ut <= 256; ut++ {
		e.Put("hot", &store.Version{Value: val, UT: ut, RDT: ut, TxID: uint64(ut)})
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	r := e.tabs.Load().runs[0]
	if bi := r.fenceFor("hot"); r.fences[bi].firstKey != "hot" {
		t.Fatalf("hot's chain shares block %d with %q", bi, r.fences[bi].firstKey)
	}
	upTo := func(ut hlc.Timestamp) store.VisibleFunc {
		return func(v *store.Version) bool { return v.UT <= ut }
	}
	read := func(visible store.VisibleFunc) (*store.Version, uint64) {
		c0 := e.recordsChecked.Load()
		got := e.ReadVisible("hot", visible)
		return got, e.recordsChecked.Load() - c0
	}
	check := func(name string, visible store.VisibleFunc, wantUT hlc.Timestamp, maxChecked uint64) {
		t.Helper()
		got, n := read(visible)
		switch {
		case wantUT == 0 && got != nil:
			t.Fatalf("%s: read UT %d, want nothing", name, got.UT)
		case wantUT != 0 && (got == nil || got.UT != wantUT):
			t.Fatalf("%s: read %+v, want UT %d", name, got, wantUT)
		case n > maxChecked:
			t.Fatalf("%s: the probe checked %d records, want at most %d", name, n, maxChecked)
		}
		t.Logf("%s: %d records checked", name, n)
	}
	check("snapshot sees everything", alwaysVisible, 256, 1)
	check("snapshot sees UT <= 246", upTo(246), 246, 11)

	e.Put("hot", &store.Version{Value: []byte("mem"), UT: 300, RDT: 300, TxID: 300})
	check("memtable holds a newer visible version", alwaysVisible, 300, 1)

	// A floor of 250 keeps UT 250..256 in the run (and UT 300 in memory);
	// the 249 older file versions stay in the file, cut by the overlay.
	if removed := e.GC(250); removed != 249 {
		t.Fatalf("GC(250) removed %d versions, want 249", removed)
	}
	if n := e.VersionsOf("hot"); n != 8 {
		t.Fatalf("VersionsOf(hot) = %d after GC, want 8", n)
	}
	check("snapshot older than every live version", upTo(249), 0, 7)
}
