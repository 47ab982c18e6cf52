package sst

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"wren/internal/hlc"
	"wren/internal/store"
	"wren/internal/store/fsutil/crashfs"
)

// newCrashFS returns a crashfs over dir drawing its images from seed.
func newCrashFS(t *testing.T, dir string, seed int64) *crashfs.FS {
	t.Helper()
	c, err := crashfs.New(dir, seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// openOver opens an engine in opts.Dir with every file operation going
// through c.
func openOver(t *testing.T, opts Options, c *crashfs.FS) *Engine {
	t.Helper()
	e, err := open(opts, c)
	if err != nil {
		t.Fatalf("sst.Open: %v", err)
	}
	return e
}

// crashImage writes what a power loss right after operation k of c may
// leave into a fresh directory, and returns the directory.
func crashImage(t *testing.T, c *crashfs.FS, k int) string {
	t.Helper()
	dir := t.TempDir()
	if err := c.Image(k, dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestFreshDirSurvivesPowerCut cuts the power after every operation of a
// fresh directory's first life — the engine-type marker's write, the first
// log generation's creation, a put, its Sync and the Close — and reopens
// every image. Each must open (an empty store.engine refuses the
// directory as "created by the \"\" engine"), and hold the put once its
// Sync was done.
func TestFreshDirSurvivesPowerCut(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		dir := t.TempDir()
		c := newCrashFS(t, dir, seed)
		e := openOver(t, Options{Dir: dir, Shards: 2, FlushBytes: -1}, c)
		e.Put("k", v("x", 1, 1))
		e.Sync()
		synced := c.Ops()
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= c.Ops(); k++ {
			img := crashImage(t, c, k)
			re, err := open(Options{Dir: img, Shards: 2, FlushBytes: -1}, newCrashFS(t, img, 0))
			if err != nil {
				t.Fatalf("seed %d, power cut after operation %d of %d: %v", seed, k, c.Ops(), err)
			}
			if got := re.Latest("k"); k >= synced && (got == nil || string(got.Value) != "x") {
				t.Fatalf("seed %d, power cut after operation %d of %d: the synced put reads %+v", seed, k, c.Ops(), got)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPowerCutSweep runs a seeded history of puts, Sync barriers, flushes
// and one compaction, cuts the power after every operation it recorded, and
// reopens each image twice. The first reopen must hold every version a
// completed Sync (or the Close) covered and nothing that was never written;
// the second must find the same state as the first.
func TestPowerCutSweep(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		powerCutSweep(t, seed)
	}
}

// sweepPut is one version the sweep wrote: its key, and how many
// operations were recorded before the write began.
type sweepPut struct {
	key string
	v   *store.Version
	op  int
}

func powerCutSweep(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	c := newCrashFS(t, dir, seed)
	opts := Options{Dir: dir, Shards: 4, FlushBytes: -1, CompactRuns: -1, BlockBytes: 512}
	e := openOver(t, opts, c)

	const keys = 12
	var puts []sweepPut
	// covered[i] is the number of puts a barrier completed by operation
	// barrierOps[i] covers.
	var barrierOps, covered []int
	barrier := func() { barrierOps, covered = append(barrierOps, c.Ops()), append(covered, len(puts)) }
	for i := 0; i < 100 || e.compactions.Load() == 0; i++ {
		switch r := rng.Intn(20); {
		case r < 14:
			n := 1 + rng.Intn(3)
			kvs := make([]store.KV, n)
			for j := range kvs {
				ut := hlc.Timestamp(len(puts) + 1)
				key := fmt.Sprint("key-", rng.Intn(keys))
				val := strings.Repeat(fmt.Sprintf("%s@%d;", key, ut), 1+rng.Intn(60))
				kvs[j] = store.KV{Key: key, Version: v(val, ut, uint64(ut))}
				puts = append(puts, sweepPut{key: key, v: kvs[j].Version, op: c.Ops()})
			}
			e.PutBatch(kvs)
		case r < 18:
			e.Sync()
			barrier()
		case r < 19 || e.Runs() < 3 || e.compactions.Load() > 0:
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
		default:
			e.Compact()
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	barrier()

	type dump map[string][]string // key → its versions, "ut=value", newest first
	read := func(img string) dump {
		re, err := open(Options{Dir: img, Shards: 4, FlushBytes: -1, CompactRuns: -1}, newCrashFS(t, img, 0))
		if err != nil {
			t.Fatalf("seed %d: reopen %s: %v", seed, img, err)
		}
		d := dump{}
		for i := 0; i < keys; i++ {
			key := fmt.Sprint("key-", i)
			bound := hlc.Timestamp(1 << 62)
			for {
				got := re.ReadVisible(key, func(v *store.Version) bool { return v.UT < bound })
				if got == nil {
					break
				}
				d[key] = append(d[key], fmt.Sprintf("%d=%s", got.UT, got.Value))
				bound = got.UT
			}
		}
		if err := re.Close(); err != nil {
			t.Fatalf("seed %d: close %s: %v", seed, img, err)
		}
		return d
	}
	t.Logf("seed %d: %d ops, %d puts, %d runs", seed, c.Ops(), len(puts), e.Runs())
	for k, b := 0, 0; k <= c.Ops(); k++ {
		for b < len(barrierOps) && barrierOps[b] <= k {
			b++
		}
		synced := 0
		if b > 0 {
			synced = covered[b-1]
		}
		context := fmt.Sprintf("seed %d, power cut after operation %d of %d", seed, k, c.Ops())
		img := crashImage(t, c, k)
		got := read(img)
		held := map[string]bool{}
		for _, vs := range got {
			for _, s := range vs {
				held[s] = true
			}
		}
		for i, p := range puts {
			s := fmt.Sprintf("%d=%s", p.v.UT, p.v.Value)
			if i < synced && !held[s] {
				t.Fatalf("%s: %s lost version %d, which a completed Sync covered", context, p.key, p.v.UT)
			}
			if p.op < k { // its write is operation p.op+1
				delete(held, s)
			}
		}
		for s := range held {
			t.Fatalf("%s: recovered %s, which was never written before the cut", context, s)
		}
		if again := read(img); fmt.Sprint(again) != fmt.Sprint(got) {
			t.Fatalf("%s: the second reopen found\n  %v\nthe first\n  %v", context, again, got)
		}
	}
}

// TestCompactionToNothingSurvivesPowerCut: a value in one run and its
// tombstone in a newer one, both cut by GC, compact to nothing. A power
// cut after the compaction may undo either input's removal; no image may
// bring the value back.
func TestCompactionToNothingSurvivesPowerCut(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		dir := t.TempDir()
		c := newCrashFS(t, dir, seed)
		opts := Options{Dir: dir, Shards: 1, FlushBytes: -1, CompactRuns: -1}
		e := openOver(t, opts, c)
		e.Put("k", v("value", 10, 1))
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		e.Put("k", &store.Version{UT: 20, RDT: 20, TxID: 2})
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		if res := e.GCStats(100); res.Removed != 2 {
			t.Fatalf("GCStats = %+v, want both versions removed", res)
		}
		e.Compact()
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		opts.Dir = crashImage(t, c, c.Ops())
		re := openOver(t, opts, newCrashFS(t, opts.Dir, 0))
		if got := re.Latest("k"); got != nil && got.Value != nil {
			t.Fatalf("seed %d: the deleted key came back after a power cut: %q", seed, got.Value)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
