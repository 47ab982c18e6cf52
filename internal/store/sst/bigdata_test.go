package sst

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wren/internal/hlc"
	"wren/internal/store"
	"wren/internal/store/enginetest"
	"wren/internal/store/fsutil/crashfs"
	"wren/internal/store/logrec"
	"wren/internal/wire"
)

// fillRun writes n keys with the given value size through the engine and
// flushes them into one sorted run.
func fillRun(t *testing.T, e *Engine, prefix string, n, valBytes int, baseUT hlc.Timestamp) {
	t.Helper()
	val := make([]byte, valBytes)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	kvs := make([]store.KV, 0, n)
	for i := 0; i < n; i++ {
		kvs = append(kvs, store.KV{
			Key:     fmt.Sprintf("%s%06d", prefix, i),
			Version: &store.Version{Value: val, UT: baseUT + hlc.Timestamp(i), RDT: baseUT, TxID: uint64(i)},
		})
	}
	e.PutBatch(kvs)
	if err := e.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

// TestBloomNegativeLookups pins the big-data point-read property: lookups
// of absent keys are answered by the resident Bloom filters, so their
// disk cost does not scale with the number of runs. With several runs
// live, a miss-heavy workload must read almost no blocks (the filters'
// false-positive rate, ~0.8% at the default 10 bits/key, is the only
// leak) while present-key lookups still read exactly one block per
// consulted run.
func TestBloomNegativeLookups(t *testing.T) {
	e := mustOpen(t, Options{
		Dir: t.TempDir(), Shards: 2,
		FlushBytes: -1, CompactRuns: -1, // manual tiering: keep every run
	})
	defer e.Close()
	const runsWanted, keysPerRun, misses = 4, 500, 2000
	for r := 0; r < runsWanted; r++ {
		fillRun(t, e, fmt.Sprintf("run%d-", r), keysPerRun, 32, hlc.Timestamp(1+r*keysPerRun))
	}
	if e.Runs() != runsWanted {
		t.Fatalf("Runs = %d, want %d", e.Runs(), runsWanted)
	}

	before := e.Metrics().BlockReads()
	skipsBefore := e.Metrics().BloomSkips()
	for i := 0; i < misses; i++ {
		if got := e.ReadVisible(fmt.Sprintf("absent-%06d", i), func(*store.Version) bool { return true }); got != nil {
			t.Fatalf("absent key read = %+v", got)
		}
	}
	reads := e.Metrics().BlockReads() - before
	skips := e.Metrics().BloomSkips() - skipsBefore
	probes := int64(misses * runsWanted)
	// Allow 5% false positives — six sigma above the expected ~0.8%.
	if reads > probes/20 {
		t.Fatalf("miss workload read %d blocks over %d probes; Bloom filters are not short-circuiting", reads, probes)
	}
	// The remainder are Bloom skips plus the rare false positive that the
	// fence index then rejects (absent keys sort before the runs' ranges).
	if skips < probes*9/10 {
		t.Fatalf("only %d of %d probes were Bloom-skipped", skips, probes)
	}

	// A present key costs one block read in the run that holds it (plus
	// any false positives elsewhere, bounded as above).
	before = e.Metrics().BlockReads()
	if got := e.ReadVisible("run2-000123", func(*store.Version) bool { return true }); got == nil {
		t.Fatal("present key not found")
	}
	if reads := e.Metrics().BlockReads() - before; reads < 1 || reads > runsWanted {
		t.Fatalf("present-key lookup read %d blocks, want 1..%d", reads, runsWanted)
	}
}

// TestResidentIndexSparse pins that what stays in memory per run is the
// sparse index — fence keys and Bloom bits — not the data: for a dataset
// of large values the resident bytes must be a small fraction of the
// stored bytes, while every key stays readable through block probes.
func TestResidentIndexSparse(t *testing.T) {
	e := mustOpen(t, Options{
		Dir: t.TempDir(), Shards: 2,
		FlushBytes: -1, CompactRuns: -1,
	})
	defer e.Close()
	const keys, valBytes = 1000, 1024
	fillRun(t, e, "big-", keys, valBytes, 1)

	var dataBytes int64
	for _, r := range e.tabs.Load().runs {
		dataBytes += r.fileSize
	}
	resident := e.ResidentIndexBytes()
	if resident <= 0 || dataBytes <= 0 {
		t.Fatalf("resident=%d dataBytes=%d", resident, dataBytes)
	}
	// The full-index baseline (the pre-sparse engine) kept every key and
	// version pointer resident — the same order as the data itself. The
	// sparse index must be far below that: under 1/16 of the file bytes.
	if resident*16 > dataBytes {
		t.Fatalf("resident index %dB is not sparse against %dB of run data", resident, dataBytes)
	}
	// Spot-check reads through the sparse index.
	for _, i := range []int{0, 1, 499, 998, 999} {
		k := fmt.Sprintf("big-%06d", i)
		got := e.ReadVisible(k, func(*store.Version) bool { return true })
		if got == nil || len(got.Value) != valBytes {
			t.Fatalf("key %s read %+v through sparse index", k, got)
		}
	}
}

// TestLevelCompactionBounded pins the leveled write cost: while a large
// high-level run exists, compacting a group of small level-0 runs must
// rewrite only those runs — the bytes written per cycle are bounded by
// the level, not the dataset.
func TestLevelCompactionBounded(t *testing.T) {
	e := mustOpen(t, Options{
		Dir: t.TempDir(), Shards: 1,
		FlushBytes: 1024, LevelFanout: 2, CompactRuns: 2, CompactGarbage: 1 << 30,
	})
	defer e.Close()

	// One run well past level 0 (level 0 ends at FlushBytes*fanout=2KB).
	fillRun(t, e, "big-", 100, 64, 1)
	if e.Runs() != 1 || e.Levels() < 2 {
		t.Fatalf("big run: Runs=%d Levels=%d, want 1 run past level 0", e.Runs(), e.Levels())
	}
	bigPath := e.tabs.Load().runs[0].path
	bigInfo, err := os.Stat(bigPath)
	if err != nil {
		t.Fatalf("stat big run: %v", err)
	}

	// Two small level-0 runs: the second flush completes a level-0 group
	// and triggers its merge — without touching the big run.
	base := e.compactionBytes.Load()
	fillRun(t, e, "s1-", 4, 16, 10_000)
	fillRun(t, e, "s2-", 4, 16, 20_000)
	if got := e.Metrics().Compactions(); got != 1 {
		t.Fatalf("Compactions = %d, want exactly the level-0 merge", got)
	}
	wrote := int64(e.compactionBytes.Load() - base)
	if wrote <= 0 || wrote >= bigInfo.Size() {
		t.Fatalf("level-0 merge wrote %dB; bound is the small level, not the %dB top run", wrote, bigInfo.Size())
	}
	if e.Runs() != 2 {
		t.Fatalf("Runs = %d after level merge, want big + merged", e.Runs())
	}
	if _, err := os.Stat(bigPath); err != nil {
		t.Fatalf("level-0 merge disturbed the top-level run: %v", err)
	}
	// Everything is still readable across the levels.
	for _, k := range []string{"big-000050", "s1-000002", "s2-000003"} {
		if got := e.ReadVisible(k, func(*store.Version) bool { return true }); got == nil {
			t.Fatalf("key %s lost across level compaction", k)
		}
	}
}

// TestCrashDuringLevelCompaction is the level-scoped generalization of
// the mid-compaction crash test: a power cut right after the merged
// level-0 run is renamed (and its directory synced) — with its superseded
// inputs still on disk and an untouched higher-level run beside them —
// must recover to exactly one copy of every key, deleting the subsumed
// inputs and never resurrecting a deleted key whose tombstone took part in
// the merge.
func TestCrashDuringLevelCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Dir: dir, Shards: 1,
		FlushBytes: 1024, LevelFanout: 2, CompactRuns: 2, CompactGarbage: 1 << 30,
	}
	c := newCrashFS(t, dir, 1)
	e := openOver(t, opts, c)
	ref := store.NewMemoryEngine(1)

	// Big run past level 0, holding a key that will be deleted in a
	// level-0 run — the tombstone must shadow it through crash recovery.
	// One batch, so the background flush trigger fires at most once and
	// the explicit Flush leaves exactly one run.
	val := make([]byte, 64)
	kvs := make([]store.KV, 0, 100)
	for i := 0; i < 100; i++ {
		ver := &store.Version{Value: val, UT: hlc.Timestamp(1 + i), RDT: 1, TxID: uint64(i)}
		kvs = append(kvs, store.KV{Key: fmt.Sprintf("big-%06d", i), Version: ver})
		ref.Put(fmt.Sprintf("big-%06d", i), ver)
	}
	e.PutBatch(kvs)
	if err := e.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if e.Runs() != 1 {
		t.Fatalf("Runs = %d after big flush, want 1", e.Runs())
	}

	// Two small flushes; the second triggers the level-0 merge, which
	// crashes right after the rename.
	tomb := &store.Version{Value: nil, UT: 10_000, RDT: 10_000, TxID: 999}
	e.Put("big-000042", tomb)
	ref.Put("big-000042", tomb)
	if err := e.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	live := &store.Version{Value: []byte("fresh"), UT: 20_000, RDT: 20_000, TxID: 1000}
	e.Put("extra", live)
	ref.Put("extra", live)
	// This flush completes the level-0 group and triggers the merge; the
	// power is cut right after its output rename.
	if err := e.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// The crash point: merged run 2-3 renamed, inputs 2-2 and 3-3 not yet
	// deleted, big run 1-1 untouched.
	dir = crashImage(t, c, c.Find(crashfs.Remove, "run-*.sst")-1)
	for _, name := range []string{"run-000001-000001.sst", "run-000002-000002.sst", "run-000003-000003.sst", "run-000002-000003.sst"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("crash footprint missing %s: %v", name, err)
		}
	}

	opts.Dir = dir
	re := mustOpen(t, opts)
	defer re.Close()
	if re.Runs() != 2 {
		t.Fatalf("Runs = %d after recovery, want big + merged", re.Runs())
	}
	for _, name := range []string{"run-000002-000002.sst", "run-000003-000003.sst"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("subsumed input %s survived recovery (err=%v)", name, err)
		}
	}
	enginetest.RequireSameState(t, re, ref)
	if got := re.ReadVisible("big-000042", func(*store.Version) bool { return true }); got == nil || got.Value != nil {
		t.Fatalf("deleted key resurrected across level-compaction crash: %+v", got)
	}
}

// TestRunWithoutTrailerRefused pins that a run file missing its trailer
// fails Open loudly: run files are only ever renamed into place complete,
// so such a file is corruption — it is neither skipped (silently dropping
// durable versions) nor served.
func TestRunWithoutTrailerRefused(t *testing.T) {
	refused := func(t *testing.T, dir, path string) {
		t.Helper()
		e, err := Open(Options{Dir: dir, Shards: 1, FlushBytes: -1})
		if err == nil {
			e.Close()
			t.Fatalf("Open served a data dir whose run %s has no trailer", path)
		}
		if !strings.Contains(err.Error(), path) {
			t.Fatalf("Open error %q does not name the run file %s", err, path)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("refused run file must be left in place for the operator: %v", err)
		}
	}

	t.Run("bare frames", func(t *testing.T) {
		// The pre-footer format: sorted version frames, nothing after the
		// last record.
		dir := t.TempDir()
		enc := wire.NewEncoder()
		for i := 0; i < 20; i++ {
			logrec.Append(enc, fmt.Sprintf("bare-%06d", i), &store.Version{Value: []byte("x"), UT: hlc.Timestamp(1 + i), RDT: 1, TxID: uint64(i)})
		}
		path := filepath.Join(dir, "run-000001-000001.sst")
		if err := os.WriteFile(path, enc.Bytes(), 0o644); err != nil {
			t.Fatalf("write bare run: %v", err)
		}
		refused(t, dir, path)
	})

	t.Run("trailer cut", func(t *testing.T) {
		dir := t.TempDir()
		e := mustOpen(t, Options{Dir: dir, Shards: 1, FlushBytes: -1})
		fillRun(t, e, "cut", 20, 8, 1)
		path := e.tabs.Load().runs[0].path
		if err := e.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, st.Size()-runTrailerSize); err != nil {
			t.Fatal(err)
		}
		refused(t, dir, path)
	})
}

// TestScanStreamsAcrossTiers pins Engine.Scan on a tiering that spans
// the memtable, several runs and GC overlay cuts at once.
func TestScanStreamsAcrossTiers(t *testing.T) {
	e := mustOpen(t, Options{
		Dir: t.TempDir(), Shards: 2,
		FlushBytes: -1, CompactRuns: -1,
	})
	defer e.Close()
	// Run 1: keys 0..9 v1. Run 2: keys 5..14 v2. Memtable: keys 12..17 v3,
	// plus a deletion of key 3.
	for i := 0; i < 10; i++ {
		e.Put(fmt.Sprintf("k-%02d", i), v("v1", hlc.Timestamp(10+i), uint64(i)))
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 15; i++ {
		e.Put(fmt.Sprintf("k-%02d", i), v("v2", hlc.Timestamp(100+i), uint64(100+i)))
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 12; i < 18; i++ {
		e.Put(fmt.Sprintf("k-%02d", i), v("v3", hlc.Timestamp(200+i), uint64(200+i)))
	}
	e.Put("k-03", &store.Version{Value: nil, UT: 300, RDT: 300, TxID: 300})

	var gotKeys, gotVals []string
	if err := e.Scan("k-02", "k-16", func(*store.Version) bool { return true }, func(k string, ver *store.Version) bool {
		gotKeys = append(gotKeys, k)
		gotVals = append(gotVals, string(ver.Value))
		return true
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	wantKeys := []string{"k-02", "k-04", "k-05", "k-06", "k-07", "k-08", "k-09", "k-10", "k-11", "k-12", "k-13", "k-14", "k-15"}
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("scan keys = %v, want %v", gotKeys, wantKeys)
	}
	for i, k := range wantKeys {
		if gotKeys[i] != k {
			t.Fatalf("scan keys = %v, want %v", gotKeys, wantKeys)
		}
		want := "v1"
		switch {
		case k >= "k-12" && k <= "k-15":
			want = "v3"
		case k >= "k-05":
			want = "v2"
		}
		if gotVals[i] != want {
			t.Fatalf("key %s scanned %q, want %q", k, gotVals[i], want)
		}
	}
}

// TestScanTakesNoEngineLock: a scan pins its run files the way point reads
// do, so it completes while a flush, compaction or GC pass holds flushMu —
// on a server the scan runs on its link's reader goroutine, and every frame
// behind it would wait too.
func TestScanTakesNoEngineLock(t *testing.T) {
	e := mustOpen(t, Options{Dir: t.TempDir(), Shards: 2, FlushBytes: -1, CompactRuns: -1})
	defer e.Close()
	fillRun(t, e, "a-", 64, 16, 10)
	fillRun(t, e, "b-", 64, 16, 100)
	e.Put("c-000000", v("mem", 500, 1))

	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	done := make(chan int, 1)
	go func() {
		n := 0
		_ = e.Scan("", "", alwaysVisible, func(string, *store.Version) bool { n++; return true })
		done <- n
	}()
	select {
	case n := <-done:
		if n != 129 {
			t.Fatalf("scan yielded %d keys, want 129", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Scan waits for flushMu")
	}
}

// TestScanRacesCompaction: runs are retired (and their files deleted)
// under a scan that pinned them, and under one that is pinning them; every
// scan still yields each key exactly once, in order.
func TestScanRacesCompaction(t *testing.T) {
	e := mustOpen(t, Options{Dir: t.TempDir(), Shards: 2, FlushBytes: -1, CompactRuns: -1, BlockBytes: 512})
	defer e.Close()
	const nKeys = 300
	key := func(i int) string { return fmt.Sprintf("k-%04d", i) }
	for i := 0; i < nKeys; i++ {
		e.Put(key(i), v("v0", hlc.Timestamp(1+i), uint64(i)))
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	compactor := make(chan error, 1)
	go func() {
		ut := hlc.Timestamp(10_000)
		for round := 0; ; round++ {
			select {
			case <-stop:
				compactor <- nil
				return
			default:
			}
			for i := round % 7; i < nKeys; i += 7 {
				ut++
				e.Put(key(i), v("v", ut, uint64(ut)))
			}
			if err := e.Flush(); err != nil {
				compactor <- err
				return
			}
			e.GCStats(ut)
			e.Compact()
		}
	}()
	for scan := 0; scan < 200 || e.Metrics().Compactions() < 20; scan++ {
		next := 0
		err := e.Scan("", "", alwaysVisible, func(k string, _ *store.Version) bool {
			if k != key(next) {
				t.Fatalf("scan %d yielded %s at position %d, want %s", scan, k, next, key(next))
			}
			next++
			return true
		})
		if err != nil || next != nKeys {
			t.Fatalf("scan %d yielded %d of %d keys (err %v)", scan, next, nKeys, err)
		}
	}
	close(stop)
	if err := <-compactor; err != nil {
		t.Fatal(err)
	}
	if err := e.Healthy(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkScanLimit64 is the benchmark workload's scan: a 4 k-key
// memtable over one run of the same keys, stopped after 64.
func BenchmarkScanLimit64(b *testing.B) {
	e, err := Open(Options{Dir: b.TempDir(), Shards: 64, FlushBytes: -1, CompactRuns: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	const nKeys = 4096
	val := make([]byte, 1024)
	kvs := make([]store.KV, nKeys)
	for round := 0; round < 2; round++ { // round 0 is flushed, round 1 stays in the memtable
		for i := range kvs {
			ut := hlc.Timestamp(1 + round*nKeys + i)
			kvs[i] = store.KV{Key: fmt.Sprintf("k-%06d", i), Version: &store.Version{Value: val, UT: ut, RDT: ut, TxID: uint64(ut)}}
		}
		e.PutBatch(kvs)
		if round == 0 {
			if err := e.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		start := fmt.Sprintf("k-%06d", (i*997)%(nKeys-64))
		_ = e.Scan(start, "", alwaysVisible, func(string, *store.Version) bool { n++; return n < 64 })
		if n != 64 {
			b.Fatalf("scan yielded %d keys", n)
		}
	}
}
