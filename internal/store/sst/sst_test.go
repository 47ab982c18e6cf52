package sst

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wren/internal/hlc"
	"wren/internal/store"
	"wren/internal/store/enginetest"
	"wren/internal/store/fsutil/crashfs"
)

func mustOpen(t *testing.T, opts Options) *Engine {
	t.Helper()
	e, err := Open(opts)
	if err != nil {
		t.Fatalf("sst.Open: %v", err)
	}
	return e
}

func v(val string, ut hlc.Timestamp, tx uint64) *store.Version {
	return &store.Version{Value: []byte(val), UT: ut, RDT: ut / 2, TxID: tx, SrcDC: uint8(tx % 3)}
}

// TestSSTEngineConformance runs the shared engine conformance suite under
// each cadence of the owner's Sync barrier, with default thresholds (small
// tests stay entirely
// in the memtable) and with aggressive tiering (tiny flush threshold and
// low compaction trigger, so the same assertions hold with chains split
// across memtable and runs, flushes racing the workload, and GC making
// cross-tier decisions).
func TestSSTEngineConformance(t *testing.T) {
	enginetest.RunBarriers(t, func(t *testing.T) store.Engine {
		return mustOpen(t, Options{Dir: t.TempDir(), Shards: 4})
	})
	t.Run("aggressive-tiering", func(t *testing.T) {
		enginetest.Run(t, func(t *testing.T) store.Engine {
			return mustOpen(t, Options{
				Dir: t.TempDir(), Shards: 4,
				FlushBytes: 512, CompactRuns: 3, CompactGarbage: 64,
			})
		})
	})
}

// TestSSTDurable runs the shared recovery suite: clean close/reopen
// cycles must preserve every version, under both manual-flush-only and
// aggressive auto-flush configurations.
func TestSSTDurable(t *testing.T) {
	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"memtable-only", Options{Shards: 4, FlushBytes: -1}},
		{"aggressive-flush", Options{Shards: 4, FlushBytes: 512, CompactRuns: 3}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			enginetest.RunDurable(t, func(t *testing.T) func() store.Engine {
				dir := t.TempDir()
				opts := cfg.opts
				opts.Dir = dir
				return func() store.Engine { return mustOpen(t, opts) }
			})
		})
	}
}

// TestTieredReads pins the cross-tier read semantics: a key whose chain
// is split between a run (old versions) and the memtable (new versions,
// including an out-of-order older write that arrived after the flush)
// must resolve snapshots exactly as a single chain would.
func TestTieredReads(t *testing.T) {
	e := mustOpen(t, Options{Dir: t.TempDir(), Shards: 2, FlushBytes: -1})
	defer e.Close()

	e.Put("k", v("v10", 10, 1))
	e.Put("k", v("v30", 30, 2))
	if err := e.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if e.Runs() != 1 {
		t.Fatalf("runs = %d, want 1", e.Runs())
	}
	e.Put("k", v("v50", 50, 3))
	e.Put("k", v("v20", 20, 4)) // late arrival older than the flushed v30

	all := func(*store.Version) bool { return true }
	upTo := func(ts hlc.Timestamp) store.VisibleFunc {
		return func(ver *store.Version) bool { return ver.UT <= ts }
	}
	for _, tc := range []struct {
		ts   hlc.Timestamp
		want string
	}{{15, "v10"}, {25, "v20"}, {35, "v30"}, {60, "v50"}} {
		got := e.ReadVisible("k", upTo(tc.ts))
		if got == nil || string(got.Value) != tc.want {
			t.Fatalf("snapshot@%d = %+v, want %s", tc.ts, got, tc.want)
		}
	}
	if got := e.Latest("k"); got == nil || string(got.Value) != "v50" {
		t.Fatalf("Latest = %+v, want v50", got)
	}
	if got := e.VersionsOf("k"); got != 4 {
		t.Fatalf("VersionsOf = %d, want 4", got)
	}
	// Batch reads agree with the single-key path, missing keys stay nil.
	batch := e.ReadVisibleBatch([]string{"k", "absent"}, all)
	if string(batch[0].Value) != "v50" || batch[1] != nil {
		t.Fatalf("batch = %v", batch)
	}
}

// TestCrossTierGC pins the global GC decision: with a chain split across
// a run and the memtable, the base version is chosen across both tiers,
// the accounting stays exact, and per-tier pruning never keeps a stale
// extra version.
func TestCrossTierGC(t *testing.T) {
	e := mustOpen(t, Options{Dir: t.TempDir(), Shards: 2, FlushBytes: -1, CompactRuns: -1})
	defer e.Close()

	for i := 1; i <= 5; i++ {
		e.Put("hot", v(fmt.Sprintf("v%d", i), hlc.Timestamp(10*i), uint64(i)))
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 6; i <= 10; i++ {
		e.Put("hot", v(fmt.Sprintf("v%d", i), hlc.Timestamp(10*i), uint64(i)))
	}

	// Oldest snapshot at 55: the global base is v5 (UT=50, in the run);
	// v1..v4 are prunable — all of them in the run tier.
	res := e.GCStats(55)
	if res.Removed != 4 || res.DroppedKeys != 0 {
		t.Fatalf("GCStats(55) = %+v, want Removed=4", res)
	}
	if got := e.VersionsOf("hot"); got != 6 {
		t.Fatalf("VersionsOf = %d, want 6", got)
	}
	upTo := func(ts hlc.Timestamp) store.VisibleFunc {
		return func(ver *store.Version) bool { return ver.UT <= ts }
	}
	if got := e.ReadVisible("hot", upTo(55)); got == nil || string(got.Value) != "v5" {
		t.Fatalf("snapshot@55 = %+v, want v5", got)
	}

	// Base in the memtable: everything left in the run is older and must
	// go, with nothing kept per-tier.
	res = e.GCStats(95)
	if res.Removed != 4 {
		t.Fatalf("GCStats(95) = %+v, want Removed=4", res)
	}
	if got := e.VersionsOf("hot"); got != 2 {
		t.Fatalf("VersionsOf after second GC = %d, want 2 (v9, v10)", got)
	}
}

// TestFlushSupersedesWAL: after a flush the run file exists, the log
// generation it covers is gone, the next one is in place, and a reopen
// serves the exact same state with no duplicated versions.
func TestFlushSupersedesWAL(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, Options{Dir: dir, Shards: 2, FlushBytes: -1})
	ref := store.NewMemoryEngine(2)
	for i := 0; i < 40; i++ {
		ver := v(fmt.Sprintf("val-%d", i), hlc.Timestamp(i+1), uint64(i))
		e.Put(fmt.Sprintf("key-%d", i%11), ver)
		ref.Put(fmt.Sprintf("key-%d", i%11), ver)
	}
	if st, err := os.Stat(filepath.Join(dir, "wal-000001.log")); err != nil || st.Size() == 0 {
		t.Fatalf("generation 1 should hold the writes before the flush (err=%v)", err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "run-000001-000001.sst")); err != nil {
		t.Fatalf("run file missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal-000001.log")); !os.IsNotExist(err) {
		t.Fatalf("superseded wal generation still present (err=%v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal-000002.log")); err != nil {
		t.Fatalf("the next generation's log is missing: %v", err)
	}
	if e.Metrics().Flushes() != 1 {
		t.Fatalf("Flushes = %d, want 1", e.Metrics().Flushes())
	}
	enginetest.RequireSameState(t, e, ref)

	// Post-flush writes land in generation 2 and survive a restart
	// together with the run.
	after := v("after-flush", 5000, 500)
	e.Put("key-after", after)
	ref.Put("key-after", after)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, Options{Dir: dir, Shards: 2, FlushBytes: -1})
	defer re.Close()
	if re.runsLoaded.Load() != 1 {
		t.Fatalf("RunsLoaded = %d, want 1", re.runsLoaded.Load())
	}
	enginetest.RequireSameState(t, re, ref)
}

// TestCrashDuringFlush cuts the power right after the run rename (and its
// directory sync) but before the WAL generations are deleted — the run AND
// the logs it covers both exist on disk. Recovery must treat the run as
// authoritative and drop the superseded logs, or every flushed version
// would come back twice.
func TestCrashDuringFlush(t *testing.T) {
	dir := t.TempDir()
	c := newCrashFS(t, dir, 1)
	e := openOver(t, Options{Dir: dir, Shards: 2, FlushBytes: -1}, c)
	ref := store.NewMemoryEngine(2)
	for i := 0; i < 30; i++ {
		ver := v(fmt.Sprintf("val-%d", i), hlc.Timestamp(i+1), uint64(i))
		e.Put(fmt.Sprintf("key-%d", i%7), ver)
		ref.Put(fmt.Sprintf("key-%d", i%7), ver)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// The crash left both the run and its superseded WAL generation.
	dir = crashImage(t, c, c.Find(crashfs.Remove, "wal-000001.log")-1)
	if _, err := os.Stat(filepath.Join(dir, "run-000001-000001.sst")); err != nil {
		t.Fatalf("run file missing after simulated crash: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal-000001.log")); err != nil {
		t.Fatalf("superseded wal generation should still exist at the crash point: %v", err)
	}

	re := mustOpen(t, Options{Dir: dir, Shards: 2, FlushBytes: -1})
	enginetest.RequireSameState(t, re, ref) // exact: no duplicates
	if _, err := os.Stat(filepath.Join(dir, "wal-000001.log")); !os.IsNotExist(err) {
		t.Fatalf("recovery kept the superseded wal generation (err=%v)", err)
	}
	// And the recovered engine keeps working across another cycle.
	after := v("post-crash", 9000, 900)
	re.Put("key-after", after)
	ref.Put("key-after", after)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2 := mustOpen(t, Options{Dir: dir, Shards: 2, FlushBytes: -1})
	defer re2.Close()
	enginetest.RequireSameState(t, re2, ref)
}

// TestCrashBeforeFlushRename: a kill while the run is still being written
// leaves only a .tmp file; recovery must discard it and replay the WAL.
func TestCrashBeforeFlushRename(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, Options{Dir: dir, Shards: 1, FlushBytes: -1})
	ref := store.NewMemoryEngine(1)
	for i := 0; i < 20; i++ {
		ver := v(fmt.Sprintf("val-%d", i), hlc.Timestamp(i+1), uint64(i))
		e.Put(fmt.Sprintf("key-%d", i%5), ver)
		ref.Put(fmt.Sprintf("key-%d", i%5), ver)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// A half-written run image: garbage that never got renamed.
	tmp := filepath.Join(dir, "run-000001-000001.sst.tmp")
	if err := os.WriteFile(tmp, []byte("partial-run-image-from-a-killed-flush"), 0o644); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, Options{Dir: dir, Shards: 1, FlushBytes: -1})
	defer re.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("leftover tmp file survived recovery (err=%v)", err)
	}
	if re.recovered.Load() != 20 {
		t.Fatalf("Recovered = %d, want 20", re.recovered.Load())
	}
	enginetest.RequireSameState(t, re, ref)
}

// TestCrashDuringCompactionRename cuts the power right after the merged
// run renamed into place (and its directory synced) but before the input
// runs were deleted: disk holds overlapping runs. Recovery must keep the
// widest and delete the subsumed ones — loading both would duplicate every
// merged version.
func TestCrashDuringCompactionRename(t *testing.T) {
	dir := t.TempDir()
	c := newCrashFS(t, dir, 1)
	e := openOver(t, Options{Dir: dir, Shards: 2, FlushBytes: -1, CompactRuns: 100}, c)
	ref := store.NewMemoryEngine(2)
	for round := 0; round < 3; round++ {
		for i := 0; i < 10; i++ {
			ver := v(fmt.Sprintf("r%d-v%d", round, i), hlc.Timestamp(100*round+i+1), uint64(100*round+i))
			key := fmt.Sprintf("key-%d", i)
			e.Put(key, ver)
			ref.Put(key, ver)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if e.Runs() != 3 {
		t.Fatalf("runs before compaction = %d, want 3", e.Runs())
	}
	e.Compact()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash point: merged run plus all three originals on disk.
	dir = crashImage(t, c, c.Find(crashfs.Remove, "run-*.sst")-1)
	if _, err := os.Stat(filepath.Join(dir, "run-000001-000003.sst")); err != nil {
		t.Fatalf("merged run missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "run-000002-000002.sst")); err != nil {
		t.Fatalf("original run missing at crash point: %v", err)
	}

	re := mustOpen(t, Options{Dir: dir, Shards: 2, FlushBytes: -1})
	defer re.Close()
	if re.Runs() != 1 {
		t.Fatalf("runs after recovery = %d, want 1 (merged)", re.Runs())
	}
	for _, name := range []string{"run-000001-000001.sst", "run-000002-000002.sst", "run-000003-000003.sst"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("subsumed run %s survived recovery (err=%v)", name, err)
		}
	}
	enginetest.RequireSameState(t, re, ref) // exact: no duplicates
}

// TestCompactionFoldsGarbage: GC prunes run indexes in memory; a merge
// compaction must rewrite the disk to match — dropping pruned versions
// and tombstoned chains whose deletion became stable — and the shrunken
// state must be what a restart recovers.
func TestCompactionFoldsGarbage(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Shards: 1, FlushBytes: -1, CompactRuns: 100, CompactGarbage: 1 << 30}
	e := mustOpen(t, opts)
	for i := 1; i <= 100; i++ {
		e.Put("hot", v(fmt.Sprintf("v%d", i), hlc.Timestamp(i), uint64(i)))
	}
	e.Put("dead", v("alive", 10, 500))
	e.Put("dead", &store.Version{Value: nil, UT: 20, RDT: 20, TxID: 501}) // tombstone
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	runPath := filepath.Join(dir, "run-000001-000001.sst")
	before, err := os.Stat(runPath)
	if err != nil {
		t.Fatal(err)
	}

	// GC at 1000: 99 of hot's versions are garbage and dead's chain is a
	// stable tombstone — all pruned from the in-memory index, still on
	// disk.
	res := e.GCStats(1000)
	if res.Removed != 101 || res.DroppedKeys != 1 {
		t.Fatalf("GCStats = %+v, want Removed=101 DroppedKeys=1", res)
	}
	if got := e.Latest("dead"); got != nil {
		t.Fatalf("dead key still visible: %+v", got)
	}

	e.Compact()
	if e.Metrics().Compactions() != 1 {
		t.Fatalf("Compactions = %d, want 1", e.Metrics().Compactions())
	}
	after, err := os.Stat(runPath)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink the run: %d -> %d bytes", before.Size(), after.Size())
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, opts)
	defer re.Close()
	if got := re.VersionsOf("hot"); got != 1 {
		t.Fatalf("recovered VersionsOf(hot) = %d, want 1", got)
	}
	if got := re.Latest("hot"); got == nil || string(got.Value) != "v100" {
		t.Fatalf("recovered Latest(hot) = %+v, want v100", got)
	}
	if got := re.Latest("dead"); got != nil {
		t.Fatalf("tombstoned chain resurrected from disk: %+v", got)
	}
}

// TestAutoFlushAndCompact: with a tiny flush threshold and a low run
// limit, a plain write workload must flush and compact on its own, keep
// every live version readable throughout, and stay healthy.
func TestAutoFlushAndCompact(t *testing.T) {
	e := mustOpen(t, Options{Dir: t.TempDir(), Shards: 2, FlushBytes: 1024, CompactRuns: 2})
	defer e.Close()
	ref := store.NewMemoryEngine(2)
	var kvs []store.KV
	for i := 0; i < 500; i++ {
		ver := v(fmt.Sprintf("val-%d-with-some-padding-bytes", i), hlc.Timestamp(i+1), uint64(i))
		kvs = append(kvs, store.KV{Key: fmt.Sprintf("key-%d", i%50), Version: ver})
		if len(kvs) == 10 {
			e.PutBatch(kvs)
			ref.PutBatch(kvs)
			kvs = kvs[:0]
		}
	}
	// Flush any remainder synchronously so the comparison is stable.
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if e.Metrics().Flushes() == 0 {
		t.Fatal("auto-flush never fired")
	}
	enginetest.RequireSameState(t, e, ref)
	if err := e.Healthy(); err != nil {
		t.Fatalf("engine unhealthy after auto flush/compact workload: %v", err)
	}
}

// TestTornWALTail: a torn final record in the active generation is
// truncated on recovery, everything before it replayed, and an append
// after recovery lands where the torn record began — so it survives the
// next restart instead of hiding behind the torn bytes.
func TestTornWALTail(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, Options{Dir: dir, Shards: 4, FlushBytes: -1})
	logPath := filepath.Join(dir, "wal-000001.log")

	const puts = 30
	sizes := make([]int64, 0, puts)
	ref := store.NewMemoryEngine(1)
	for i := 0; i < puts; i++ {
		key := fmt.Sprintf("key-%d", i%7)
		ver := v(fmt.Sprintf("payload-%d-wide-enough-to-cut-inside", i), hlc.Timestamp(i+1), uint64(i))
		e.Put(key, ver)
		st, err := os.Stat(logPath)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, st.Size())
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < puts-1; i++ {
		key := fmt.Sprintf("key-%d", i%7)
		ref.Put(key, v(fmt.Sprintf("payload-%d-wide-enough-to-cut-inside", i), hlc.Timestamp(i+1), uint64(i)))
	}
	if err := os.Truncate(logPath, sizes[puts-2]+5); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, Options{Dir: dir, Shards: 4, FlushBytes: -1})
	if re.truncated.Load() != 1 {
		t.Errorf("TruncatedLogs = %d, want 1", re.truncated.Load())
	}
	if re.recovered.Load() != uint64(puts-1) {
		t.Errorf("Recovered = %d, want %d", re.recovered.Load(), puts-1)
	}
	enginetest.RequireSameState(t, re, ref)

	after := v("after-recovery", 5000, 500)
	re.Put("key-after", after)
	ref.Put("key-after", after)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2 := mustOpen(t, Options{Dir: dir, Shards: 4, FlushBytes: -1})
	defer re2.Close()
	if re2.truncated.Load() != 0 {
		t.Errorf("second recovery found %d torn logs, want 0", re2.truncated.Load())
	}
	enginetest.RequireSameState(t, re2, ref)
}

// TestAppendFailureSurfacesHealth: when the WAL append path breaks, the
// engine keeps serving from memory but Healthy must report the failure
// immediately — this is the signal the cluster uses to detect a
// silently-frozen log.
func TestAppendFailureSurfacesHealth(t *testing.T) {
	e := mustOpen(t, Options{Dir: t.TempDir(), Shards: 1, FlushBytes: -1})
	e.Put("k", v("before", 1, 1))
	if err := e.Healthy(); err != nil {
		t.Fatalf("healthy engine reported %v", err)
	}

	// Break every write and truncate by closing the generation's file.
	e.log.mu.Lock()
	_ = e.log.F.Close()
	e.log.mu.Unlock()

	e.Put("k", v("during", 2, 2))
	if err := e.Healthy(); err == nil {
		t.Fatal("Healthy() = nil after append failure")
	}
	// Memory stays authoritative.
	if lv := e.Latest("k"); lv == nil || string(lv.Value) != "during" {
		t.Fatalf("memory lost the write: %+v", lv)
	}
	if err := e.Close(); err == nil {
		t.Fatal("Close should surface the recorded append failure")
	}
}

// TestAnyShardCountReopens: the stripe count is not part of the disk
// format — no file is per stripe — so a directory holding a run and an
// active log generation reopens under any Shards value with the same
// state, and a write made under one count replays under the next.
func TestAnyShardCountReopens(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, Options{Dir: dir, Shards: 8, FlushBytes: -1})
	ref := store.NewMemoryEngine(8)
	for i := 0; i < 64; i++ {
		ver := v(fmt.Sprintf("val-%d", i), hlc.Timestamp(i+1), uint64(i))
		e.Put(fmt.Sprintf("key-%d", i), ver)
		ref.Put(fmt.Sprintf("key-%d", i), ver)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	var kvs []store.KV
	for i := 0; i < 32; i++ { // rewrites half the flushed keys, into the log
		kvs = append(kvs, store.KV{Key: fmt.Sprintf("key-%d", 2*i), Version: v(fmt.Sprintf("new-%d", i), hlc.Timestamp(100+i), uint64(100+i))})
	}
	e.PutBatch(kvs)
	ref.PutBatch(kvs)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for i, requested := range []int{2, 64, 0} {
		re := mustOpen(t, Options{Dir: dir, Shards: requested, FlushBytes: -1})
		if want := store.ResolveShards(requested); re.NumShards() != want {
			t.Fatalf("reopen with Shards=%d: NumShards = %d, want %d", requested, re.NumShards(), want)
		}
		enginetest.RequireSameState(t, re, ref)
		key, ver := fmt.Sprintf("reopen-%d", i), v(fmt.Sprintf("under-%d", requested), hlc.Timestamp(1000+i), uint64(1000+i))
		re.Put(key, ver)
		ref.Put(key, ver)
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "sst.meta")); !os.IsNotExist(err) {
		t.Fatalf("the engine wrote sst.meta (err=%v)", err)
	}
}

// TestOpenRefusesPerStripeLayout: a directory of the older layout — an
// sst.meta, or a wal-<gen>-<stripe>.log — is refused with an error that
// names the layout change, and left as it was.
func TestOpenRefusesPerStripeLayout(t *testing.T) {
	for _, name := range []string{"sst.meta", "wal-000001-00000.log"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			e := mustOpen(t, Options{Dir: dir})
			e.Put("k", v("x", 1, 1))
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), []byte("shards=64\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			_, err = Open(Options{Dir: dir})
			if err == nil || !strings.Contains(err.Error(), "per-stripe log layout") || !strings.Contains(err.Error(), name) {
				t.Fatalf("Open = %v, want a refusal naming %s and the layout change", err, name)
			}
			after, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(after) != len(before) {
				t.Fatalf("the refused Open changed the directory: %d entries, was %d", len(after), len(before))
			}
		})
	}
}

// TestExclusiveDirLock: a second engine on a live data directory must
// fail at Open; Close releases the lock.
func TestExclusiveDirLock(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, Options{Dir: dir})
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("second Open on a live data dir should fail")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := mustOpen(t, Options{Dir: dir})
	_ = e2.Close()
}

// BenchmarkEnginePutBatch compares write throughput of the memory engine
// and the SST engine, once as a server drives it (no sync) and once with a
// Sync barrier after every batch (the CI bench smoke for the sst backend
// matrix leg).
func BenchmarkEnginePutBatch(b *testing.B) {
	const batch = 64
	mkBatch := func(i int) []store.KV {
		kvs := make([]store.KV, batch)
		for j := range kvs {
			kvs[j] = store.KV{
				Key:     fmt.Sprintf("key-%d", (i*batch+j)%4096),
				Version: v("sixteen-byte-val", hlc.Timestamp(i*batch+j+1), uint64(j)),
			}
		}
		return kvs
	}
	run := func(b *testing.B, e store.Engine, sync bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.PutBatch(mkBatch(i))
			if sync {
				e.Sync()
			}
		}
		b.StopTimer()
		_ = e.Close()
	}
	b.Run("memory", func(b *testing.B) {
		run(b, store.NewMemoryEngine(0), false)
	})
	for _, sync := range []bool{false, true} {
		name := "sst"
		if sync {
			name = "sst-durable"
		}
		b.Run(name, func(b *testing.B) {
			e, err := Open(Options{Dir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			run(b, e, sync)
		})
	}
}

// TestDeletedKeyStaysDeadAcrossFlushCrash pins the GC durability rule: a
// tombstone whose shadowed value was already flushed to a run file must
// NOT leave the memtable at GC time — its WAL generation is about to be
// superseded by a flush, and if the next run omits it, a crash would
// recover the stale run file and resurrect the deleted key as live.
func TestDeletedKeyStaysDeadAcrossFlushCrash(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Shards: 1, FlushBytes: -1, CompactRuns: 100, CompactGarbage: 1 << 30}
	e := mustOpen(t, opts)
	all := func(*store.Version) bool { return true }

	e.Put("k", v("live", 10, 1))
	if err := e.Flush(); err != nil { // run 1's file now holds live@10
		t.Fatal(err)
	}
	e.Put("k", &store.Version{Value: nil, UT: 20, RDT: 20, TxID: 2}) // tombstone, WAL gen 2
	e.Put("other", v("x", 30, 3))

	// GC at a horizon past the tombstone: the value in run 1's index is
	// pruned, but the tombstone must stay in the memtable (run 1's FILE
	// still holds live@10, and this tombstone is its only durable shadow).
	res := e.GCStats(100)
	if res.Removed != 1 || res.DroppedKeys != 0 {
		t.Fatalf("GCStats = %+v, want Removed=1 DroppedKeys=0 (tombstone deferred)", res)
	}
	if got := e.ReadVisible("k", all); got == nil || got.Value != nil {
		t.Fatalf("freshest = %+v, want the retained tombstone", got)
	}

	// The flush supersedes WAL gen 2 — the tombstone must ride along into
	// run 2 for that to be safe.
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, opts)
	if got := re.ReadVisible("k", all); got != nil && got.Value != nil {
		t.Fatalf("deleted key resurrected after flush + restart: %q", got.Value)
	}

	// Compaction folds the tombstone and the stale value out of the disk
	// entirely; after another restart the key is gone without a trace.
	if gone := re.GCStats(1000); gone.DroppedKeys != 1 {
		t.Fatalf("post-restart GCStats = %+v, want DroppedKeys=1", gone)
	}
	re.Compact()
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2 := mustOpen(t, opts)
	defer re2.Close()
	if got := re2.Latest("k"); got != nil {
		t.Fatalf("key survived compaction + restart: %+v", got)
	}
	if got := re2.Latest("other"); got == nil || string(got.Value) != "x" {
		t.Fatalf("unrelated key lost: %+v", got)
	}
}

// TestRunTombstoneShadowsLog is the same rule with the tiers swapped: a
// tombstone already flushed to a run is the only durable witness over an
// older version that arrived after it and lives in the log. GC past the
// tombstone must not cut it while the log holds that version, or a
// compaction takes it off the disk and a restart replays the version.
func TestRunTombstoneShadowsLog(t *testing.T) {
	opts := Options{Dir: t.TempDir(), Shards: 2, FlushBytes: -1, CompactRuns: -1}
	e := mustOpen(t, opts)
	e.Put("k", v("old", 100, 1))
	e.Put("k", &store.Version{UT: 301, RDT: 301, TxID: 2})
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	e.Put("k", v("late", 250, 3)) // older than the tombstone, in the log only

	e.GCStats(306)
	e.Compact()
	if got := e.ReadVisible("k", alwaysVisible); got != nil && got.Value != nil {
		t.Fatalf("deleted key reads %q after GC and compaction", got.Value)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e = mustOpen(t, opts)
	if got := e.ReadVisible("k", alwaysVisible); got != nil && got.Value != nil {
		t.Fatalf("deleted key resurrected by a restart: %q", got.Value)
	}

	// Once a flush has retired the log generation, the chain goes.
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if res := e.GCStats(306); res.DroppedKeys != 1 {
		t.Fatalf("GCStats after the flush = %+v, want the chain dropped", res)
	}
	e.Compact()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e = mustOpen(t, opts)
	defer e.Close()
	if got := e.Latest("k"); got != nil {
		t.Fatalf("key survived GC, compaction and a restart: %+v", got)
	}
}

// TestSyncBarrier pins the engine's side of "engine logs are a recovery
// accelerator; the txlog is the WAL", as counts: the put path issues no
// fsync; a Sync with unsynced appends issues exactly one (one generation,
// one file, whatever stripes the appends came through) and a clean Sync
// none; a flush syncs the generation it rotates out, once, so a Sync that
// runs while the run is still being written need not look behind the
// active generation; and Close issues one.
func TestSyncBarrier(t *testing.T) {
	batch := func(base int) []store.KV {
		var kvs []store.KV
		for i := 0; i < 64; i++ {
			kvs = append(kvs, store.KV{Key: fmt.Sprintf("k-%03d", i), Version: v("x", hlc.Timestamp(base+i), uint64(base+i))})
		}
		return kvs
	}
	e := mustOpen(t, Options{Dir: t.TempDir(), Shards: 8, FlushBytes: -1})
	syncs := func(want uint64, after string) {
		t.Helper()
		if got := e.syncs.Load(); got != want {
			t.Fatalf("after %s: %d fsyncs, want %d", after, got, want)
		}
	}
	e.Sync()
	syncs(0, "a Sync of a fresh engine")
	for i := 0; i < 5; i++ {
		e.PutBatch(batch(1000 * (i + 1)))
	}
	e.Put("single", v("y", 1, 1))
	syncs(0, "the put path")
	e.Sync()
	syncs(1, "a Sync over appends through all 8 stripes")
	e.Sync()
	syncs(1, "a Sync of a clean engine")

	// Unsynced appends rotated out by a flush are synced by the flush.
	e.PutBatch(batch(9000))
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	syncs(2, "a flush rotating out unsynced appends")
	e.Sync()
	syncs(2, "a Sync of the clean active generation after the flush")
	if err := e.Flush(); err != nil { // nothing to flush: no rotation, no sync
		t.Fatal(err)
	}
	syncs(2, "a flush of an empty memtable")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	syncs(3, "Close")
}
