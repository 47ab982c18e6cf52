package sst

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"wren/internal/hlc"
	"wren/internal/store"
)

// TestGCIncrementalMatchesStreaming is the property the incremental GC
// pass rests on: visiting only the keys written since the last pass plus
// the pending set makes the same decisions as visiting every key. Two
// engines receive the same random history; one is forced to the streaming
// key source before every pass (the reference: it is the pass the engine
// always ran), the other picks its own. Every pass must return the same
// GCResult, and after every pass the engines must agree on what they hold
// and on what every snapshot reads.
//
// The two share the run-cursor merge of Scan, compaction and the streaming
// pass, so a fault there would not show between them. A third engine, the
// memory engine, takes the same history and floors, and at every check
// each key's ReadVisible and a full Scan at every snapshot at or above the
// floor must return what it returns (a tombstone reads as absent). A key
// stays out of that comparison from a write at or below the floor — which
// no running transaction could commit — until a later pass's base is a
// value newer than that write: until then what the snapshot reads depends
// on which versions each engine's GC still holds, and the sst engine holds
// more (a tombstone a run file needs, cuts a reopen undoes).
//
// The history is built to reach the places a key can slip through: chains
// split across the memtable and several runs, tombstones with and without
// file-resident versions under them, versions arriving below an earlier
// floor, flushes between a write and the next pass (the write lists are
// dropped at the freeze — writeRun's pending rule has to catch the key),
// level and garbage-triggered compactions, and reopens (cuts and pending
// set rebuilt by one streamed pass).
func TestGCIncrementalMatchesStreaming(t *testing.T) {
	const (
		seeds = 40
		steps = 600
		nKeys = 48
	)
	for seed := int64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel() // the flushes' fsyncs dominate; seeds share nothing
			opts := func(dir string) Options {
				return Options{
					Dir: dir, Shards: 4,
					// Explicit flushes only, so both engines tier at the
					// same steps; small blocks so cursors cross fences.
					FlushBytes: -1, CompactRuns: 3, CompactGarbage: 12, BlockBytes: 192,
				}
			}
			dirs := [2]string{t.TempDir(), t.TempDir()}
			var eng [2]*Engine // 0 = incremental, 1 = streaming reference
			for i := range eng {
				eng[i] = mustOpen(t, opts(dirs[i]))
			}
			defer func() {
				for _, e := range eng {
					_ = e.Close()
				}
			}()
			var clock, floor hlc.Timestamp = 100, 0
			var compared, skipped int
			ref := store.NewMemoryEngine(4)
			late := map[string]*store.Version{}
			put := func(kvs ...store.KV) {
				for _, kv := range kvs {
					if w := late[kv.Key]; kv.Version.UT <= floor && (w == nil || w.Less(kv.Version)) {
						late[kv.Key] = kv.Version
					}
				}
				for _, e := range []store.Engine{eng[0], eng[1], ref} {
					e.PutBatch(kvs)
				}
			}

			rng := rand.New(rand.NewSource(seed))
			keys := make([]string, nKeys)
			for i := range keys {
				keys[i] = fmt.Sprintf("k-%03d", i)
			}
			var tx uint64
			version := func(tomb bool) *store.Version {
				tx++
				ut := clock
				switch rng.Intn(10) {
				case 0: // arrives late, possibly below an earlier floor
					ut = hlc.Timestamp(1 + rng.Int63n(int64(clock)))
				case 1: // ties with the previous write on UT
				default:
					clock++
					ut = clock
				}
				ver := &store.Version{UT: ut, RDT: ut / 2, TxID: tx, SrcDC: uint8(rng.Intn(3))}
				if !tomb {
					ver.Value = []byte(fmt.Sprintf("v%d", tx))
				}
				return ver
			}
			check := func(step int, what string) {
				t.Helper()
				a, b := eng[0], eng[1]
				if av, bv := a.Versions(), b.Versions(); av != bv {
					t.Fatalf("step %d (%s): Versions %d, streaming reference %d", step, what, av, bv)
				}
				if ar, br := a.Runs(), b.Runs(); ar != br {
					t.Fatalf("step %d (%s): Runs %d, streaming reference %d", step, what, ar, br)
				}
				snaps := []hlc.Timestamp{floor, (floor + clock) / 2, clock}
				for _, k := range keys {
					if an, bn := a.VersionsOf(k), b.VersionsOf(k); an != bn {
						t.Fatalf("step %d (%s): VersionsOf(%s) %d, streaming reference %d", step, what, k, an, bn)
					}
					for _, snap := range snaps {
						visible := func(v *store.Version) bool { return v.UT <= snap }
						av, bv := a.ReadVisible(k, visible), b.ReadVisible(k, visible)
						if !reflect.DeepEqual(av, bv) {
							t.Fatalf("step %d (%s): ReadVisible(%s, %d) = %+v, streaming reference %+v", step, what, k, snap, av, bv)
						}
						if late[k] != nil {
							skipped++
							continue
						}
						compared++
						if got, want := versionString(av), versionString(ref.ReadVisible(k, visible)); got != want {
							t.Fatalf("step %d (%s): ReadVisible(%s, %d) = %s, memory engine %s", step, what, k, snap, got, want)
						}
					}
				}
				for _, snap := range snaps {
					visible := func(v *store.Version) bool { return v.UT <= snap }
					want := scanString(t, ref, visible, late)
					for i, e := range eng {
						if got := scanString(t, e, visible, late); got != want {
							t.Fatalf("step %d (%s): engine %d Scan at %d:\n got %s\nwant %s (memory engine)", step, what, i, snap, got, want)
						}
					}
				}
			}

			for step := 0; step < steps; step++ {
				switch r := rng.Intn(100); {
				case r < 50:
					put(store.KV{Key: keys[rng.Intn(nKeys)], Version: version(false)})
				case r < 60:
					put(store.KV{Key: keys[rng.Intn(nKeys)], Version: version(true)})
				case r < 68:
					kvs := make([]store.KV, 2+rng.Intn(5))
					for i := range kvs {
						kvs[i] = store.KV{Key: keys[rng.Intn(nKeys)], Version: version(rng.Intn(6) == 0)}
					}
					put(kvs...)
				case r < 86:
					if rng.Intn(4) > 0 { // sometimes the floor stands still
						floor += hlc.Timestamp(rng.Int63n(int64(clock-floor) + 1))
					}
					eng[1].flushMu.Lock()
					eng[1].gcStream = true
					eng[1].flushMu.Unlock()
					got, want := eng[0].GCStats(floor), eng[1].GCStats(floor)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: GCStats(%d) = %+v, streaming reference %+v", step, floor, got, want)
					}
					ref.GCStats(floor)
					for k, w := range late {
						if b := ref.ReadVisible(k, func(v *store.Version) bool { return v.UT <= floor }); b != nil && b.Value != nil && w.Less(b) {
							delete(late, k)
						}
					}
					check(step, "gc")
				case r < 94:
					for _, e := range eng {
						if err := e.Flush(); err != nil {
							t.Fatal(err)
						}
					}
				case r < 97:
					for _, e := range eng {
						e.Compact()
					}
				default:
					for i, e := range eng {
						if err := e.Close(); err != nil {
							t.Fatal(err)
						}
						eng[i] = mustOpen(t, opts(dirs[i]))
					}
					check(step, "reopen")
				}
			}
			for _, e := range eng {
				if err := e.Healthy(); err != nil {
					t.Fatal(err)
				}
			}
			check(steps, "end")
			if skipped > compared/4 {
				t.Fatalf("the memory engine was compared on %d reads and skipped on %d: the late keys crowd out the reference", compared, skipped)
			}
		})
	}
}

// versionString renders what a read returned, for comparing engines whose
// versions are copies of each other. A tombstone reads as absent, as every
// caller takes it.
func versionString(v *store.Version) string {
	if v == nil || v.Value == nil {
		return "absent"
	}
	return fmt.Sprintf("%q@%d/%d/%d/%d", v.Value, v.UT, v.RDT, v.TxID, v.SrcDC)
}

// scanString renders a full Scan of e at visible, leaving out the keys in
// skip.
func scanString(t *testing.T, e store.Engine, visible store.VisibleFunc, skip map[string]*store.Version) string {
	t.Helper()
	var b strings.Builder
	if err := e.Scan("", "", visible, func(key string, v *store.Version) bool {
		if skip[key] == nil {
			fmt.Fprintf(&b, "%s=%s ", key, versionString(v))
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
