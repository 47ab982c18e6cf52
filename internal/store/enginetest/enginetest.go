// Package enginetest is the conformance suite for store.Engine
// implementations. Every backend — the in-memory lock-striped engine, the
// WAL engine, future memtable+SST engines — must pass the same suite, so
// the protocol layers can treat backends as interchangeable.
package enginetest

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"wren/internal/hlc"
	"wren/internal/store"
)

// Factory opens a fresh, empty engine for one subtest. The suite calls
// Close on every engine it opens; factories needing extra cleanup should
// register it with t.Cleanup.
type Factory func(t *testing.T) store.Engine

// Run exercises the Engine contract against engines produced by open.
func Run(t *testing.T, open Factory) {
	t.Run("PutReadVisible", func(t *testing.T) { testPutReadVisible(t, open(t)) })
	t.Run("LastWriterWins", func(t *testing.T) { testLastWriterWins(t, open(t)) })
	t.Run("BatchAlignment", func(t *testing.T) { testBatchAlignment(t, open(t)) })
	t.Run("BatchInto", func(t *testing.T) { testBatchInto(t, open(t)) })
	t.Run("TombstoneReadsAndGC", func(t *testing.T) { testTombstones(t, open(t)) })
	t.Run("GCAccounting", func(t *testing.T) { testGCAccounting(t, open(t)) })
	t.Run("CountsAndIteration", func(t *testing.T) { testCounts(t, open(t)) })
	t.Run("Scan", func(t *testing.T) { testScan(t, open(t)) })
	t.Run("ScanConcurrent", func(t *testing.T) { testScanConcurrent(t, open(t)) })
	t.Run("ConcurrentUse", func(t *testing.T) { testConcurrent(t, open(t)) })
	t.Run("Healthy", func(t *testing.T) { testHealthy(t, open(t)) })
	t.Run("CloseIdempotent", func(t *testing.T) { testCloseIdempotent(t, open(t)) })
}

// RunBarriers runs the suite once per cadence at which an owner may call
// Engine.Sync, the one barrier that makes a durable engine's writes
// stable (engines never sync on their own): "never" leaves it to Close,
// "always" runs it after every write, and "interval" runs it back to back
// on a second goroutine that races every call, as a server's release loop
// does.
func RunBarriers(t *testing.T, open Factory) {
	t.Run("never", func(t *testing.T) { Run(t, open) })
	t.Run("always", func(t *testing.T) {
		Run(t, func(t *testing.T) store.Engine { return syncEach{open(t)} })
	})
	t.Run("interval", func(t *testing.T) {
		Run(t, func(t *testing.T) store.Engine { return newSyncRacer(open(t)) })
	})
}

// syncEach calls Sync after every write.
type syncEach struct{ store.Engine }

func (e syncEach) Put(key string, v *store.Version) { e.Engine.Put(key, v); e.Sync() }
func (e syncEach) PutBatch(kvs []store.KV)          { e.Engine.PutBatch(kvs); e.Sync() }

// syncRacer calls Sync on its own goroutine until Close.
type syncRacer struct {
	store.Engine
	stop, done chan struct{}
	once       sync.Once
}

func newSyncRacer(e store.Engine) *syncRacer {
	r := &syncRacer{Engine: e, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		for {
			select {
			case <-r.stop:
				return
			default:
				e.Sync()
				runtime.Gosched()
			}
		}
	}()
	return r
}

func (r *syncRacer) Close() error {
	r.once.Do(func() { close(r.stop); <-r.done })
	return r.Engine.Close()
}

// ReopenFactory binds one subtest to a fixed data directory: the returned
// opener recovers the same state every time it is called. Durable engines
// pass it to RunDurable.
type ReopenFactory func(t *testing.T) func() store.Engine

// RunDurable exercises the recovery side of the Engine contract against
// engines that persist state across Close/Open cycles: every committed
// version — values, tombstones, dependency vectors, empty values — must
// survive a clean close, post-recovery writes must survive another cycle,
// and deleted keys must stay deleted.
func RunDurable(t *testing.T, factory ReopenFactory) {
	t.Run("RecoveryRoundTrip", func(t *testing.T) { testRecoveryRoundTrip(t, factory(t)) })
	t.Run("RecoverThenAppend", func(t *testing.T) { testRecoverThenAppend(t, factory(t)) })
	t.Run("DeleteStaysDeleted", func(t *testing.T) { testDeleteStaysDeleted(t, factory(t)) })
}

func version(val string, ut hlc.Timestamp, tx uint64) *store.Version {
	var b []byte
	if val != "" {
		b = []byte(val)
	} else {
		b = []byte{}
	}
	return &store.Version{Value: b, UT: ut, RDT: ut, TxID: tx}
}

func all(*store.Version) bool { return true }

func upTo(ts hlc.Timestamp) store.VisibleFunc {
	return func(v *store.Version) bool { return v.UT <= ts }
}

func testPutReadVisible(t *testing.T, e store.Engine) {
	defer func() { _ = e.Close() }()
	if got := e.ReadVisible("missing", all); got != nil {
		t.Fatalf("read of missing key = %+v, want nil", got)
	}
	e.Put("k", version("v1", 10, 1))
	e.Put("k", version("v2", 20, 2))

	if got := e.ReadVisible("k", all); got == nil || string(got.Value) != "v2" {
		t.Fatalf("freshest visible = %+v, want v2", got)
	}
	if got := e.ReadVisible("k", upTo(15)); got == nil || string(got.Value) != "v1" {
		t.Fatalf("snapshot@15 = %+v, want v1", got)
	}
	if got := e.ReadVisible("k", upTo(5)); got != nil {
		t.Fatalf("snapshot@5 = %+v, want nil", got)
	}
}

func testLastWriterWins(t *testing.T, e store.Engine) {
	defer func() { _ = e.Close() }()
	// Insert out of timestamp order; Latest must still follow LWW order:
	// UT, then SrcDC, then TxID.
	e.Put("k", version("late", 30, 1))
	e.Put("k", version("early", 10, 2))
	e.Put("k", &store.Version{Value: []byte("tie-high-dc"), UT: 30, RDT: 0, TxID: 1, SrcDC: 1})

	if got := e.Latest("k"); got == nil || string(got.Value) != "tie-high-dc" {
		t.Fatalf("Latest = %+v, want the SrcDC=1 tie-breaker winner", got)
	}
	if got := e.VersionsOf("k"); got != 3 {
		t.Fatalf("VersionsOf = %d, want 3", got)
	}
	if got := e.Latest("absent"); got != nil {
		t.Fatalf("Latest(absent) = %+v, want nil", got)
	}
}

func testBatchAlignment(t *testing.T, e store.Engine) {
	defer func() { _ = e.Close() }()
	var kvs []store.KV
	for i := 0; i < 100; i++ {
		kvs = append(kvs, store.KV{
			Key:     fmt.Sprintf("key-%03d", i),
			Version: version(fmt.Sprintf("val-%03d", i), hlc.Timestamp(100+i), uint64(i)),
		})
	}
	e.PutBatch(kvs)

	keys := []string{"key-000", "no-such-key", "key-050", "key-099"}
	got := e.ReadVisibleBatch(keys, all)
	if len(got) != len(keys) {
		t.Fatalf("batch result length %d, want %d", len(got), len(keys))
	}
	if got[0] == nil || string(got[0].Value) != "val-000" {
		t.Errorf("got[0] = %+v, want val-000", got[0])
	}
	if got[1] != nil {
		t.Errorf("got[1] = %+v, want nil for missing key", got[1])
	}
	if got[2] == nil || string(got[2].Value) != "val-050" {
		t.Errorf("got[2] = %+v, want val-050", got[2])
	}
	if got[3] == nil || string(got[3].Value) != "val-099" {
		t.Errorf("got[3] = %+v, want val-099", got[3])
	}
	if e.Keys() != 100 || e.Versions() != 100 {
		t.Errorf("Keys/Versions = %d/%d, want 100/100", e.Keys(), e.Versions())
	}
	// Empty batches and empty key sets are no-ops, not panics.
	e.PutBatch(nil)
	if out := e.ReadVisibleBatch(nil, all); len(out) != 0 {
		t.Errorf("empty batch read returned %d entries", len(out))
	}
}

// testBatchInto verifies the caller-buffer batch read: results must match
// ReadVisibleBatch exactly, the supplied buffer must be reused when large
// enough (including clearing stale entries), and a too-small buffer must
// grow transparently.
func testBatchInto(t *testing.T, e store.Engine) {
	defer func() { _ = e.Close() }()
	var kvs []store.KV
	for i := 0; i < 40; i++ {
		kvs = append(kvs, store.KV{
			Key:     fmt.Sprintf("key-%03d", i),
			Version: version(fmt.Sprintf("val-%03d", i), hlc.Timestamp(100+i), uint64(i)),
		})
	}
	e.PutBatch(kvs)

	keys := []string{"key-000", "missing-a", "key-020", "key-039", "missing-b"}
	want := e.ReadVisibleBatch(keys, all)

	// Oversized buffer pre-filled with garbage: every slot must be
	// rewritten, none left stale, and the backing array reused.
	buf := make([]*store.Version, 8)
	garbage := version("garbage", 1, 999)
	for i := range buf {
		buf[i] = garbage
	}
	got := e.ReadVisibleBatchInto(keys, all, buf)
	if len(got) != len(keys) {
		t.Fatalf("Into result length %d, want %d", len(got), len(keys))
	}
	if &got[0] != &buf[0] {
		t.Error("Into did not reuse a large-enough caller buffer")
	}
	for i := range keys {
		if (got[i] == nil) != (want[i] == nil) {
			t.Fatalf("slot %d: Into=%+v, Batch=%+v", i, got[i], want[i])
		}
		if got[i] != nil && string(got[i].Value) != string(want[i].Value) {
			t.Fatalf("slot %d: Into=%q, Batch=%q", i, got[i].Value, want[i].Value)
		}
		if got[i] == garbage {
			t.Fatalf("slot %d: stale buffer entry survived", i)
		}
	}

	// Undersized (nil) buffer grows.
	if got := e.ReadVisibleBatchInto(keys, all, nil); len(got) != len(keys) || got[0] == nil {
		t.Fatalf("Into with nil buffer = %v", got)
	}
	// Empty key set with a dirty buffer returns an empty slice.
	if got := e.ReadVisibleBatchInto(nil, all, buf); len(got) != 0 {
		t.Fatalf("Into with no keys returned %d entries", len(got))
	}
	// Single-key fast path.
	one := e.ReadVisibleBatchInto([]string{"key-007"}, all, buf[:0])
	if len(one) != 1 || one[0] == nil || string(one[0].Value) != "val-007" {
		t.Fatalf("single-key Into = %v", one)
	}
}

func testTombstones(t *testing.T, e store.Engine) {
	defer func() { _ = e.Close() }()
	e.Put("k", version("live", 10, 1))
	e.Put("k", &store.Version{Value: nil, UT: 20, RDT: 20, TxID: 2}) // tombstone

	// The tombstone is the freshest visible version; callers treat its nil
	// Value as absence. The older live version is still reachable from
	// older snapshots.
	if got := e.ReadVisible("k", all); got == nil || got.Value != nil {
		t.Fatalf("freshest = %+v, want the tombstone (nil Value)", got)
	}
	if got := e.ReadVisible("k", upTo(15)); got == nil || string(got.Value) != "live" {
		t.Fatalf("snapshot@15 = %+v, want the live version", got)
	}

	// Once the deletion is stable (oldest snapshot past the tombstone),
	// GC drops the whole chain.
	res := e.GCStats(30)
	if res.Removed != 2 || res.DroppedKeys != 1 {
		t.Fatalf("GCStats = %+v, want Removed=2 DroppedKeys=1", res)
	}
	if e.Keys() != 0 {
		t.Fatalf("Keys = %d after tombstone GC, want 0", e.Keys())
	}
}

func testGCAccounting(t *testing.T, e store.Engine) {
	defer func() { _ = e.Close() }()
	for i := 0; i < 10; i++ {
		e.Put("hot", version(fmt.Sprintf("v%d", i), hlc.Timestamp(10*(i+1)), uint64(i)))
	}
	// Oldest snapshot at 55: versions 10..50 are prunable except the
	// newest ≤55 (the version a snapshot@55 reads), i.e. 4 removals.
	res := e.GCStats(55)
	if res.Removed != 4 {
		t.Fatalf("GCStats(55).Removed = %d, want 4", res.Removed)
	}
	sum := 0
	for _, n := range res.PerShard {
		sum += n
	}
	if sum != res.Removed {
		t.Fatalf("PerShard sums to %d, want %d", sum, res.Removed)
	}
	if got := e.VersionsOf("hot"); got != 6 {
		t.Fatalf("VersionsOf after GC = %d, want 6", got)
	}
	if got := e.ReadVisible("hot", upTo(55)); got == nil || string(got.Value) != "v4" {
		t.Fatalf("snapshot@55 after GC = %+v, want v4 (UT=50)", got)
	}
	if got := e.GC(200); got != 5 {
		t.Fatalf("GC(200) = %d, want 5", got)
	}
}

func testCounts(t *testing.T, e store.Engine) {
	defer func() { _ = e.Close() }()
	if e.NumShards() <= 0 || e.NumShards()&(e.NumShards()-1) != 0 {
		t.Fatalf("NumShards = %d, want a positive power of two", e.NumShards())
	}
	want := map[string]bool{}
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("key-%02d", i)
		e.Put(k, version("v", hlc.Timestamp(i+1), uint64(i)))
		e.Put(k, version("w", hlc.Timestamp(i+100), uint64(i+100)))
		want[k] = false
	}
	if e.Keys() != 50 || e.Versions() != 100 {
		t.Fatalf("Keys/Versions = %d/%d, want 50/100", e.Keys(), e.Versions())
	}
	seen := 0
	e.ForEachKey(func(k string) {
		covered, ok := want[k]
		if !ok {
			t.Errorf("ForEachKey yielded unknown key %q", k)
			return
		}
		if covered {
			t.Errorf("ForEachKey yielded %q twice", k)
		}
		want[k] = true
		seen++
		// Re-entrancy: callbacks may read the engine.
		_ = e.Latest(k)
	})
	if seen != 50 {
		t.Errorf("ForEachKey yielded %d keys, want 50", seen)
	}
}

// testScan pins the range-scan contract: ascending key order, inclusive
// start / exclusive end bounds, "" meaning to-the-last-key, snapshot
// visibility per key, tombstone elision, and early stop.
func testScan(t *testing.T, e store.Engine) {
	defer func() { _ = e.Close() }()
	collect := func(start, end string, visible store.VisibleFunc) (keys []string, vals []string) {
		if err := e.Scan(start, end, visible, func(k string, v *store.Version) bool {
			keys = append(keys, k)
			vals = append(vals, string(v.Value))
			return true
		}); err != nil {
			t.Fatalf("Scan(%q, %q): %v", start, end, err)
		}
		return keys, vals
	}

	// Empty engine: no callbacks, no error.
	if keys, _ := collect("", "", all); len(keys) != 0 {
		t.Fatalf("scan of empty engine yielded %v", keys)
	}

	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("key-%02d", i)
		e.Put(k, version(fmt.Sprintf("old-%02d", i), hlc.Timestamp(10+i), uint64(i)))
		e.Put(k, version(fmt.Sprintf("new-%02d", i), hlc.Timestamp(100+i), uint64(100+i)))
	}
	// A deleted key must be elided; one key deleted then re-created must
	// show its newest live value.
	e.Put("key-05", &store.Version{Value: nil, UT: 500, RDT: 500, TxID: 500})
	e.Put("key-07", &store.Version{Value: nil, UT: 500, RDT: 500, TxID: 501})
	e.Put("key-07", version("reborn", 600, 502))

	keys, vals := collect("", "", all)
	if len(keys) != 29 {
		t.Fatalf("full scan yielded %d keys, want 29 (tombstone elided): %v", len(keys), keys)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("scan out of order: %q before %q", keys[i-1], keys[i])
		}
	}
	for i, k := range keys {
		if k == "key-05" {
			t.Fatal("scan yielded deleted key-05")
		}
		want := "new-" + k[len("key-"):]
		if k == "key-07" {
			want = "reborn"
		}
		if vals[i] != want {
			t.Fatalf("key %q scanned value %q, want %q", k, vals[i], want)
		}
	}

	// Bounds: start inclusive, end exclusive.
	keys, _ = collect("key-10", "key-13", all)
	if len(keys) != 3 || keys[0] != "key-10" || keys[2] != "key-12" {
		t.Fatalf("bounded scan = %v, want [key-10 key-11 key-12]", keys)
	}
	// Start past every key, and an empty range.
	if keys, _ = collect("key-99", "", all); len(keys) != 0 {
		t.Fatalf("scan past the last key yielded %v", keys)
	}
	if keys, _ = collect("key-10", "key-10", all); len(keys) != 0 {
		t.Fatalf("empty range yielded %v", keys)
	}

	// Snapshot visibility: at ts 50 only the old versions exist, and
	// neither deletion has happened yet.
	keys, vals = collect("key-04", "key-08", upTo(50))
	if len(keys) != 4 || vals[0] != "old-04" || vals[1] != "old-05" || vals[3] != "old-07" {
		t.Fatalf("snapshot scan = %v / %v, want old-04..old-07", keys, vals)
	}

	// Early stop: fn returning false ends the scan.
	n := 0
	if err := e.Scan("", "", all, func(string, *store.Version) bool {
		n++
		return n < 5
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if n != 5 {
		t.Fatalf("early-stopped scan made %d callbacks, want 5", n)
	}
}

// testScanConcurrent pins that scans tolerate racing writes: every key
// written before the scan started must appear, in order, with some
// committed value — concurrent writes may or may not be observed but
// must never corrupt the iteration.
func testScanConcurrent(t *testing.T, e store.Engine) {
	defer func() { _ = e.Close() }()
	const stable = 50
	for i := 0; i < stable; i++ {
		e.Put(fmt.Sprintf("stable-%02d", i), version("s", hlc.Timestamp(i+1), uint64(i)))
	}
	stopWriters := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stopWriters:
				return
			default:
			}
			e.Put(fmt.Sprintf("hot-%02d", i%20), version("w", hlc.Timestamp(1000+i), uint64(i)))
		}
	}()
	for round := 0; round < 20; round++ {
		var got []string
		if err := e.Scan("stable-", "stable-zzz", all, func(k string, v *store.Version) bool {
			if v == nil || v.Value == nil {
				t.Errorf("scan yielded key %q with no live version", k)
			}
			got = append(got, k)
			return true
		}); err != nil {
			t.Fatalf("Scan during writes: %v", err)
		}
		if len(got) != stable {
			t.Fatalf("scan round %d yielded %d stable keys, want %d", round, len(got), stable)
		}
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatalf("scan round %d out of order: %q before %q", round, got[i-1], got[i])
			}
		}
	}
	close(stopWriters)
	wg.Wait()
}

// ScanDuringInserts pins scans racing the writes that change an engine's
// key set: one writer inserts new keys between the resident ones, deletes
// them again, and runs GC, which drops the stable tombstones. Every scan
// must yield keys strictly ascending — so none twice — and every resident
// key, since those are present for the whole scan. Run it under -race.
func ScanDuringInserts(t *testing.T, e store.Engine) {
	const resident = 400
	key := func(i int) string { return fmt.Sprintf("k-%04d", i) }
	for i := 0; i < resident; i++ {
		e.Put(key(i), version("r", hlc.Timestamp(1+i), uint64(i)))
	}
	var written atomic.Int64
	stop, done := make(chan struct{}), make(chan struct{})
	defer func() {
		close(stop)
		<-done
		_ = e.Close()
	}()
	go func() {
		defer close(done)
		ut := hlc.Timestamp(resident)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := fmt.Sprintf("%s-%d", key(i%resident), i) // sorts right after a resident key
			ut++
			e.Put(k, version("n", ut, uint64(ut)))
			ut++
			e.Put(k, &store.Version{UT: ut, RDT: ut, TxID: uint64(ut)})
			if i%64 == 63 {
				e.GC(ut) // the deletions are stable: their chains go
			}
			written.Add(1)
		}
	}()
	for round := 0; round < 10 || written.Load() < 5000; round++ {
		prev, next := "", 0
		if err := e.Scan("", "", all, func(k string, _ *store.Version) bool {
			if k <= prev {
				t.Fatalf("scan %d yielded %q after %q", round, k, prev)
			}
			prev = k
			if next < resident && k == key(next) {
				next++
			}
			return true
		}); err != nil {
			t.Fatalf("Scan during inserts: %v", err)
		}
		if next != resident {
			t.Fatalf("scan %d yielded %d of the %d resident keys in order, missing %s", round, next, resident, key(next))
		}
	}
}

func testConcurrent(t *testing.T, e store.Engine) {
	defer func() { _ = e.Close() }()
	const (
		writers = 4
		readers = 4
		perG    = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := fmt.Sprintf("key-%d", i%17)
				ut := hlc.Timestamp(w*perG + i + 1)
				if i%3 == 0 {
					e.PutBatch([]store.KV{
						{Key: key, Version: version("a", ut, uint64(i))},
						{Key: fmt.Sprintf("key-%d", (i+1)%17), Version: version("b", ut, uint64(i))},
					})
				} else {
					e.Put(key, version("c", ut, uint64(i)))
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys := []string{"key-0", "key-5", "key-11"}
			for i := 0; i < perG; i++ {
				_ = e.ReadVisible("key-3", all)
				_ = e.ReadVisibleBatch(keys, all)
				if i%50 == 0 {
					_ = e.GC(hlc.Timestamp(i))
				}
			}
		}()
	}
	wg.Wait()
	if e.Keys() == 0 {
		t.Error("no keys survived the concurrent workload")
	}
}

// testHealthy pins the write-path health signal: a fresh engine is
// healthy and stays healthy through ordinary writes, reads and GC — the
// signal must only fire on real write-path failures (covered by the
// engine-specific failure-injection tests).
func testHealthy(t *testing.T, e store.Engine) {
	defer func() { _ = e.Close() }()
	if err := e.Healthy(); err != nil {
		t.Fatalf("fresh engine unhealthy: %v", err)
	}
	for i := 0; i < 50; i++ {
		e.Put(fmt.Sprintf("key-%d", i%7), version("v", hlc.Timestamp(i+1), uint64(i)))
	}
	_ = e.ReadVisible("key-0", all)
	_ = e.GC(10)
	if err := e.Healthy(); err != nil {
		t.Fatalf("engine unhealthy after ordinary use: %v", err)
	}
}

// sameVersion compares the fields recovery must preserve.
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

// RequireSameState fails unless got holds exactly the state of want —
// the assertion every recovery test reduces to. Exported so engine
// packages can reuse it in their own crash-torture tests.
func RequireSameState(t *testing.T, got store.Engine, want store.Engine) {
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

func testRecoveryRoundTrip(t *testing.T, open func() store.Engine) {
	ref := store.NewMemoryEngine(4)
	e := open()
	var kvs []store.KV
	for i := 0; i < 200; i++ {
		ver := version(fmt.Sprintf("val-%d", i), hlc.Timestamp(i+1), uint64(i))
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

	re := open()
	defer func() { _ = re.Close() }()
	RequireSameState(t, re, ref)
	if lv := re.Latest("empty-val"); lv == nil || lv.Value == nil || len(lv.Value) != 0 {
		t.Fatalf("empty value recovered as %+v, want non-nil empty", lv)
	}
}

func testRecoverThenAppend(t *testing.T, open func() store.Engine) {
	ref := store.NewMemoryEngine(4)
	e := open()
	for i := 0; i < 60; i++ {
		v := version(fmt.Sprintf("v%d", i), hlc.Timestamp(i+1), uint64(i))
		e.Put(fmt.Sprintf("key-%d", i%13), v)
		ref.Put(fmt.Sprintf("key-%d", i%13), v)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re := open()
	after := version("post-recovery", 10_000, 777)
	re.Put("key-after", after)
	ref.Put("key-after", after)
	if err := re.Close(); err != nil {
		t.Fatalf("Close after recovery: %v", err)
	}

	re2 := open()
	defer func() { _ = re2.Close() }()
	RequireSameState(t, re2, ref)
}

func testDeleteStaysDeleted(t *testing.T, open func() store.Engine) {
	e := open()
	e.Put("gone", version("live", 10, 1))
	e.Put("gone", &store.Version{Value: nil, UT: 20, RDT: 20, TxID: 2}) // tombstone
	e.Put("kept", version("stays", 10, 3))
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re := open()
	if got := re.ReadVisible("gone", all); got == nil || got.Value != nil {
		t.Fatalf("recovered freshest of deleted key = %+v, want the tombstone", got)
	}
	// Once the deletion is stable, GC drops the chain — and the drop must
	// itself survive another restart.
	if res := re.GCStats(100); res.DroppedKeys != 1 {
		t.Fatalf("GCStats dropped %d keys, want 1", res.DroppedKeys)
	}
	if err := re.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re2 := open()
	defer func() { _ = re2.Close() }()
	// The engine's durable form may legitimately still hold the chain
	// (logs and runs drop garbage lazily, at compaction), but the key
	// must read as absent: either the chain is gone or the tombstone is
	// still its freshest version.
	if got := re2.ReadVisible("gone", all); got != nil && got.Value != nil {
		t.Fatalf("deleted key resurrected after GC + restart: %+v", got)
	}
	if got := re2.ReadVisible("kept", all); got == nil || string(got.Value) != "stays" {
		t.Fatalf("surviving key lost: %+v", got)
	}
}

func testCloseIdempotent(t *testing.T, e store.Engine) {
	e.Put("k", version("v", 1, 1))
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
