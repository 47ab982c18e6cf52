package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"wren/internal/hlc"
	"wren/internal/obs"
	"wren/internal/store"
	"wren/internal/store/enginetest"
)

func mustOpen(t *testing.T, opts Options) *Engine {
	t.Helper()
	e, err := Open(opts)
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	return e
}

// TestWALEngineConformance runs the shared engine conformance suite
// against the WAL engine under each cadence of the owner's Sync barrier.
func TestWALEngineConformance(t *testing.T) {
	enginetest.RunBarriers(t, func(t *testing.T) store.Engine {
		return mustOpen(t, Options{Dir: t.TempDir(), Shards: 4})
	})
}

// TestScanDuringInserts: scans over the memory stripes' ordered key index
// while a writer inserts keys and GC drops them.
func TestScanDuringInserts(t *testing.T) {
	enginetest.ScanDuringInserts(t, mustOpen(t, Options{Dir: t.TempDir(), Shards: 4}))
}

// TestWALDurable runs the shared recovery suite (clean close/reopen
// cycles preserve every version; deletes stay deleted).
func TestWALDurable(t *testing.T) {
	enginetest.RunDurable(t, func(t *testing.T) func() store.Engine {
		dir := t.TempDir()
		return func() store.Engine {
			return mustOpen(t, Options{Dir: dir, Shards: 4})
		}
	})
}

func v(val string, ut hlc.Timestamp, tx uint64) *store.Version {
	return &store.Version{Value: []byte(val), UT: ut, RDT: ut / 2, TxID: tx, SrcDC: uint8(tx % 3)}
}

// sameVersion compares the fields that recovery must preserve.
func sameVersion(a, b *store.Version) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if (a.Value == nil) != (b.Value == nil) || string(a.Value) != string(b.Value) {
		return false
	}
	if a.UT != b.UT || a.RDT != b.RDT || a.TxID != b.TxID || a.SrcDC != b.SrcDC {
		return false
	}
	if len(a.DV) != len(b.DV) {
		return false
	}
	for i := range a.DV {
		if a.DV[i] != b.DV[i] {
			return false
		}
	}
	return true
}

// requireSameState fails unless got holds exactly the state of want.
func requireSameState(t *testing.T, got store.Engine, want *store.Store) {
	t.Helper()
	if got.Keys() != want.Keys() || got.Versions() != want.Versions() {
		t.Fatalf("state mismatch: got %d keys/%d versions, want %d/%d",
			got.Keys(), got.Versions(), want.Keys(), want.Versions())
	}
	want.ForEachKey(func(k string) {
		if got.VersionsOf(k) != want.VersionsOf(k) {
			t.Fatalf("key %q: got %d versions, want %d", k, got.VersionsOf(k), want.VersionsOf(k))
		}
		if !sameVersion(got.Latest(k), want.Latest(k)) {
			t.Fatalf("key %q: Latest mismatch:\n got %+v\nwant %+v", k, got.Latest(k), want.Latest(k))
		}
	})
}

// TestRecoveryRoundTrip closes an engine and reopens it from the same
// directory: every version — values, tombstones, Cure dependency vectors,
// all metadata — must survive.
func TestRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ref := store.NewMemoryEngine(4)
	e := mustOpen(t, Options{Dir: dir, Shards: 4})

	var kvs []store.KV
	for i := 0; i < 200; i++ {
		ver := v(fmt.Sprintf("val-%d", i), hlc.Timestamp(i+1), uint64(i))
		if i%7 == 0 {
			ver.Value = nil // tombstone
		}
		if i%5 == 0 {
			ver.DV = []hlc.Timestamp{hlc.Timestamp(i), hlc.Timestamp(i + 1), hlc.Timestamp(i + 2)}
		}
		kvs = append(kvs, store.KV{Key: fmt.Sprintf("key-%d", i%37), Version: ver})
	}
	e.PutBatch(kvs)
	ref.PutBatch(kvs)
	// An empty value must stay distinguishable from a tombstone.
	empty := &store.Version{Value: []byte{}, UT: 1000, TxID: 999}
	e.Put("empty-val", empty)
	ref.Put("empty-val", empty)

	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re := mustOpen(t, Options{Dir: dir, Shards: 4})
	defer re.Close()
	if re.recovered.Load() == 0 {
		t.Fatal("recovery replayed no records")
	}
	if re.truncated.Load() != 0 {
		t.Fatalf("clean shutdown produced %d truncated shards", re.truncated.Load())
	}
	requireSameState(t, re, ref)
	if lv := re.Latest("empty-val"); lv == nil || lv.Value == nil || len(lv.Value) != 0 {
		t.Fatalf("empty value recovered as %+v, want non-nil empty", lv)
	}
}

// TestCrashRecoveryTornTail is the crash-torture test: it simulates a kill
// mid-PutBatch by truncating the shard log inside the final record, then
// reopens and verifies the recovered state matches a reference engine fed
// only the fully-persisted puts.
func TestCrashRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	// One shard so there is exactly one log with a known record order.
	e := mustOpen(t, Options{Dir: dir, Shards: 1})
	logPath := filepath.Join(dir, "shard-00000.log")

	const puts = 50
	sizes := make([]int64, 0, puts) // log size after each put
	ref := store.NewMemoryEngine(1)
	for i := 0; i < puts; i++ {
		key := fmt.Sprintf("key-%d", i%11)
		ver := v(fmt.Sprintf("payload-%d-some-bytes-to-make-records-wide", i), hlc.Timestamp(i+1), uint64(i))
		e.Put(key, ver)
		st, err := os.Stat(logPath)
		if err != nil {
			t.Fatalf("stat log: %v", err)
		}
		sizes = append(sizes, st.Size())
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Tear the final record: cut the log a few bytes past the end of the
	// second-to-last record, i.e. mid-way through the last one.
	cut := sizes[puts-2] + 5
	if cut >= sizes[puts-1] {
		t.Fatalf("test setup: cut %d not inside the last record (%d..%d)", cut, sizes[puts-2], sizes[puts-1])
	}
	if err := os.Truncate(logPath, cut); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	// The reference engine holds every put except the torn last one.
	for i := 0; i < puts-1; i++ {
		key := fmt.Sprintf("key-%d", i%11)
		ref.Put(key, v(fmt.Sprintf("payload-%d-some-bytes-to-make-records-wide", i), hlc.Timestamp(i+1), uint64(i)))
	}

	re := mustOpen(t, Options{Dir: dir, Shards: 1})
	if re.truncated.Load() != 1 {
		t.Errorf("TruncatedShards = %d, want 1", re.truncated.Load())
	}
	if re.recovered.Load() != uint64(puts-1) {
		t.Errorf("Recovered = %d, want %d", re.recovered.Load(), puts-1)
	}
	requireSameState(t, re, ref)

	// The torn tail must be gone from disk, and the log must accept fresh
	// appends that survive another restart.
	if st, _ := os.Stat(logPath); st.Size() != sizes[puts-2] {
		t.Errorf("log size after recovery = %d, want %d (torn tail truncated)", st.Size(), sizes[puts-2])
	}
	after := v("post-recovery", 10_000, 777)
	re.Put("key-after", after)
	ref.Put("key-after", after)
	if err := re.Close(); err != nil {
		t.Fatalf("Close after recovery: %v", err)
	}
	re2 := mustOpen(t, Options{Dir: dir, Shards: 1})
	defer re2.Close()
	requireSameState(t, re2, ref)
}

// TestCrashRecoveryGarbageTail checks that a tail of random garbage (a
// crash mid-header, or a corrupt record) is truncated, not fatal.
func TestCrashRecoveryGarbageTail(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, Options{Dir: dir, Shards: 1})
	ref := store.NewMemoryEngine(1)
	for i := 0; i < 10; i++ {
		ver := v(fmt.Sprintf("v%d", i), hlc.Timestamp(i+1), uint64(i))
		e.Put("k", ver)
		ref.Put("k", ver)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	logPath := filepath.Join(dir, "shard-00000.log")
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A plausible-looking header (huge length) followed by junk.
	if _, err := f.Write([]byte{0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3, 4, 5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	re := mustOpen(t, Options{Dir: dir, Shards: 1})
	defer re.Close()
	if re.truncated.Load() != 1 {
		t.Errorf("TruncatedShards = %d, want 1", re.truncated.Load())
	}
	requireSameState(t, re, ref)
}

// TestCompaction drives GC past the compaction threshold and verifies the
// shard log is rewritten smaller while preserving live state.
func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, Options{Dir: dir, Shards: 1, CompactThreshold: 50})
	logPath := filepath.Join(dir, "shard-00000.log")

	// 100 versions of one key; all but the newest are prunable.
	for i := 0; i < 100; i++ {
		e.Put("hot", v(fmt.Sprintf("v%d", i), hlc.Timestamp(i+1), uint64(i)))
	}
	before, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if removed := e.GC(1000); removed != 99 {
		t.Fatalf("GC removed %d, want 99", removed)
	}
	if e.compactions.Load() != 1 {
		t.Fatalf("Compactions = %d, want 1", e.compactions.Load())
	}
	after, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Errorf("log did not shrink: %d -> %d bytes", before.Size(), after.Size())
	}

	// Appends after compaction land in the rewritten log; recovery sees
	// the compacted state plus the new writes.
	e.Put("hot", v("final", 5000, 500))
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re := mustOpen(t, Options{Dir: dir, Shards: 1})
	defer re.Close()
	if got := re.VersionsOf("hot"); got != 2 {
		t.Fatalf("recovered VersionsOf(hot) = %d, want 2 (survivor + final)", got)
	}
	if lv := re.Latest("hot"); lv == nil || string(lv.Value) != "final" {
		t.Fatalf("recovered Latest = %+v, want final", lv)
	}
	// Dropped counters reset: a second small GC must not re-compact.
	if e2 := re.GC(6000); e2 != 1 {
		t.Fatalf("post-recovery GC removed %d, want 1", e2)
	}
}

// TestShardCountPersistedAcrossReopen: the stripe count is fixed at
// creation (wal.meta); reopening with a different Shards option must
// adopt the persisted count instead of mis-routing or ignoring logs.
func TestShardCountPersistedAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, Options{Dir: dir, Shards: 8})
	ref := store.NewMemoryEngine(8)
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("key-%d", i)
		ver := v(fmt.Sprintf("val-%d", i), hlc.Timestamp(i+1), uint64(i))
		e.Put(key, ver)
		ref.Put(key, ver)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	for _, requested := range []int{2, 64, 0} {
		re := mustOpen(t, Options{Dir: dir, Shards: requested})
		if re.NumShards() != 8 {
			t.Fatalf("reopen with Shards=%d: NumShards = %d, want persisted 8", requested, re.NumShards())
		}
		requireSameState(t, re, ref)
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// A corrupt meta file must fail loudly, not guess.
	if err := os.WriteFile(filepath.Join(dir, "wal.meta"), []byte("shards=7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Error("Open with corrupt meta (non-power-of-two) should fail")
	}
}

// TestAppendFailureFreezesLog: when an append and its rollback both fail,
// the shard log must freeze (no further appends that recovery could not
// reach past a torn record) while memory keeps serving; a compaction
// rewrite from live state repairs the log.
func TestAppendFailureFreezesLog(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, Options{Dir: dir, Shards: 1, CompactThreshold: 1})
	e.Observe(obs.New("core dc0/p2"))
	degraded, cancel := obs.Subscribe("wal.degraded")
	defer cancel()
	e.Put("k", v("before", 1, 1))
	if err := e.Healthy(); err != nil {
		t.Fatalf("healthy engine reported %v", err)
	}

	// Force every write and truncate to fail by closing the file out from
	// under the shard (same package: reach into the unexported state).
	sh := e.shards[0]
	sh.Mu.Lock()
	_ = sh.F.Close()
	sh.Mu.Unlock()

	e.Put("k", v("during", 2, 2))
	sh.Mu.Lock()
	frozen := sh.Failed
	sh.Mu.Unlock()
	if !frozen {
		t.Fatal("shard log not frozen after append+rollback failure")
	}
	// The failure must be visible to Healthy immediately — not only at
	// Close — so servers and benchmarks can detect the degraded log.
	if err := e.Healthy(); err == nil {
		t.Fatal("Healthy() = nil after append+rollback failure")
	}
	// ... and to an operator, as one event naming the server.
	select {
	case ev := <-degraded:
		if want := fmt.Sprintf("core dc0/p2: wal.degraded err=%v dir=%s", e.Healthy(), dir); ev.String() != want {
			t.Fatalf("degraded event %q, want %q", ev, want)
		}
	default:
		t.Fatal("the failure logged no wal.degraded event")
	}
	// Memory stays authoritative; further appends are skipped, not torn.
	if lv := e.Latest("k"); lv == nil || string(lv.Value) != "during" {
		t.Fatalf("memory lost the write: %+v", lv)
	}
	e.Put("k", v("after", 3, 3))

	// Compaction (threshold 1, GC drops 2 old versions) rewrites the log
	// from memory and thaws the shard.
	if removed := e.GC(10); removed != 2 {
		t.Fatalf("GC removed %d, want 2", removed)
	}
	sh.Mu.Lock()
	frozen = sh.Failed
	sh.Mu.Unlock()
	if frozen {
		t.Fatal("compaction did not repair the frozen shard log")
	}
	e.Put("k", v("final", 4, 4))
	if err := e.Close(); err == nil {
		t.Fatal("Close should surface the recorded append failure")
	}

	re := mustOpen(t, Options{Dir: dir, Shards: 1})
	defer re.Close()
	if lv := re.Latest("k"); lv == nil || string(lv.Value) != "final" {
		t.Fatalf("post-repair writes not recovered: %+v", lv)
	}
}

// TestExclusiveDirLock: a second engine on a live data directory must
// fail at Open instead of interleaving appends; Close releases the lock.
func TestExclusiveDirLock(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, Options{Dir: dir})
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("second Open on a live data dir should fail")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := mustOpen(t, Options{Dir: dir}) // lock released by Close
	_ = e2.Close()
}

// BenchmarkEnginePutBatch compares write throughput of the memory engine
// and the WAL engine, once as a server drives it (no sync) and once with a
// Sync barrier after every batch (the CI bench smoke).
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
		name := "wal"
		if sync {
			name = "wal-durable"
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

// TestGroupCommitRecovery exercises the coalesced group commit: a
// multi-shard PutBatch appends to every touched log with one write each,
// and the Sync behind it is ONE concurrent phase over those logs. A second
// batch appended after that phase must land behind intact records, and
// both must be recoverable.
func TestGroupCommitRecovery(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, Options{Dir: dir, Shards: 8})

	// A batch wide enough to touch many of the 8 shard logs at once.
	var kvs []store.KV
	for i := 0; i < 64; i++ {
		kvs = append(kvs, store.KV{
			Key:     fmt.Sprintf("group-%03d", i),
			Version: v(fmt.Sprintf("val-%03d", i), hlc.Timestamp(100+i), uint64(i)),
		})
	}
	e.PutBatch(kvs)
	e.Sync()
	// A second batch over the same keys: appends after the first sync phase
	// must land behind intact records in every log.
	for i := range kvs {
		kvs[i].Version = v(fmt.Sprintf("new-%03d", i), hlc.Timestamp(500+i), uint64(1000+i))
	}
	e.PutBatch(kvs)
	e.Sync()

	touched := 0
	for si := 0; si < e.NumShards(); si++ {
		if fi, err := os.Stat(filepath.Join(dir, fmt.Sprintf("shard-%05d.log", si))); err == nil && fi.Size() > 0 {
			touched++
		}
	}
	if touched < 2 {
		t.Fatalf("batch touched %d shard logs; the group-sync path needs several", touched)
	}

	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re := mustOpen(t, Options{Dir: dir, Shards: 8})
	defer func() { _ = re.Close() }()
	if got := re.Versions(); got != 128 {
		t.Fatalf("recovered %d versions, want 128", got)
	}
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("group-%03d", i)
		latest := re.Latest(k)
		if latest == nil || string(latest.Value) != fmt.Sprintf("new-%03d", i) {
			t.Fatalf("key %s: recovered Latest = %+v", k, latest)
		}
	}
}

// TestSyncBarrier pins the engine's side of "engine logs are a recovery
// accelerator; the txlog is the WAL": the put path issues no fsync however
// many shard logs it touches, and Sync is one phase over exactly the dirty
// logs.
func TestSyncBarrier(t *testing.T) {
	batch := func(base int) []store.KV {
		var kvs []store.KV
		for i := 0; i < 64; i++ {
			kvs = append(kvs, store.KV{Key: fmt.Sprintf("k-%03d", i), Version: v("x", hlc.Timestamp(base+i), uint64(base+i))})
		}
		return kvs
	}
	e := mustOpen(t, Options{Dir: t.TempDir(), Shards: 8})
	defer e.Close()
	for i := 0; i < 5; i++ {
		e.PutBatch(batch(1000 * (i + 1)))
	}
	if got := e.syncs.Load(); got != 0 {
		t.Fatalf("put path issued %d fsyncs", got)
	}
	e.Sync()
	first := e.syncs.Load()
	if first == 0 || first > 8 {
		t.Fatalf("Sync issued %d fsyncs, want one per dirty shard log (1..8)", first)
	}
	e.Sync()
	if got := e.syncs.Load(); got != first {
		t.Fatalf("Sync of a clean engine issued %d fsyncs", got-first)
	}
}
