package sst

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"wren/internal/hlc"
	"wren/internal/store"
	"wren/internal/store/enginetest"
)

// logFiles lists the log generations in dir.
func logFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var logs []string
	for _, ent := range ents {
		if strings.HasSuffix(ent.Name(), ".log") {
			logs = append(logs, ent.Name())
		}
	}
	return logs
}

// TestFlushCreatesOneLogFile pins the rotation as a count: with 64
// stripes written, a directory holds one log file before a flush and one
// after, the next generation's, and that file is created while a stripe
// lock is held elsewhere — before the freeze takes the stripe locks, so
// writers never wait on a file create or a directory sync.
func TestFlushCreatesOneLogFile(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, Options{Dir: dir, Shards: 64, FlushBytes: -1})
	defer e.Close()
	for i := 0; i < 1024; i++ {
		e.Put(fmt.Sprintf("key-%d", i), v("x", hlc.Timestamp(i+1), uint64(i)))
	}
	if got := logFiles(t, dir); len(got) != 1 || got[0] != "wal-000001.log" {
		t.Fatalf("log files before the flush = %v, want [wal-000001.log]", got)
	}

	// Hold the last stripe's lock: the freeze cannot get past it, so the
	// next generation's file can only appear if it is created first.
	last := &e.stripes[len(e.stripes)-1]
	last.mu.Lock()
	done := make(chan error, 1)
	go func() { done <- e.Flush() }()
	next := filepath.Join(dir, "wal-000002.log")
	created := false
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if _, err := os.Stat(next); err == nil {
			created = true
			break
		}
	}
	if e.tabs.Load().frozen != nil {
		t.Error("the freeze ran with a stripe lock held elsewhere")
	}
	last.mu.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("the next generation's log was not created before the freeze took the stripe locks")
	}
	if got := logFiles(t, dir); len(got) != 1 || got[0] != "wal-000002.log" {
		t.Fatalf("log files after the flush = %v, want [wal-000002.log]", got)
	}
}

// TestBatchIsOneLogWrite pins the append as a count: a PutBatch reaches the
// log in one write whatever stripes its keys map to, and a Put in one.
func TestBatchIsOneLogWrite(t *testing.T) {
	e := mustOpen(t, Options{Dir: t.TempDir(), Shards: 64, FlushBytes: -1})
	defer e.Close()
	kvs := make([]store.KV, 128)
	stripes := map[uint32]bool{}
	for i := range kvs {
		kvs[i] = store.KV{Key: fmt.Sprintf("key-%d", i), Version: v("x", hlc.Timestamp(i+1), uint64(i))}
		stripes[store.Fingerprint(kvs[i].Key)&e.mask] = true
	}
	if len(stripes) < 32 {
		t.Fatalf("the batch touches %d stripes; the pin needs many", len(stripes))
	}
	e.PutBatch(kvs)
	if got := e.Metrics().LogWrites(); got != 1 {
		t.Fatalf("a 128-key batch over %d stripes took %d log writes, want 1", len(stripes), got)
	}
	e.Put("one-more", v("y", 500, 500))
	if got := e.Metrics().LogWrites(); got != 2 {
		t.Fatalf("a Put took %d log writes, want 1", got-1)
	}
	ref := store.NewMemoryEngine(0)
	ref.PutBatch(kvs)
	ref.Put("one-more", v("y", 500, 500))
	enginetest.RequireSameState(t, e, ref)
}

// TestCrashBetweenLogCreateAndSwap simulates a kill after a flush created
// the next generation's log but before the freeze swapped it in: the
// directory holds the written generation and an empty newer one. Recovery
// must take the empty one as active, replay the one before it in full, and
// let the next flush's run cover both.
func TestCrashBetweenLogCreateAndSwap(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Shards: 4, FlushBytes: -1}
	opts.crashAfterLogCreate = true
	e := mustOpen(t, opts)
	ref := store.NewMemoryEngine(4)
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
	if st, err := os.Stat(filepath.Join(dir, "wal-000002.log")); err != nil || st.Size() != 0 {
		t.Fatalf("the crash point should leave an empty generation 2 (err=%v)", err)
	}

	re := mustOpen(t, Options{Dir: dir, Shards: 4, FlushBytes: -1})
	if got := re.Metrics().Recovered(); got != 30 {
		t.Fatalf("Recovered = %d, want all 30 records of generation 1", got)
	}
	enginetest.RequireSameState(t, re, ref)
	after := v("post-crash", 9000, 900)
	re.Put("key-after", after) // lands in generation 2
	ref.Put("key-after", after)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	re2 := mustOpen(t, Options{Dir: dir, Shards: 4, FlushBytes: -1})
	defer re2.Close()
	enginetest.RequireSameState(t, re2, ref)
	if err := re2.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "run-000001-000002.sst")); err != nil {
		t.Fatalf("the flush's run should cover generations 1 and 2: %v", err)
	}
	if got := logFiles(t, dir); len(got) != 1 || got[0] != "wal-000003.log" {
		t.Fatalf("log files after the flush = %v, want [wal-000003.log]", got)
	}
	enginetest.RequireSameState(t, re2, ref)
}

// TestBatchesRaceSyncsAndFreezes drives the three lock paths at once:
// batches locking overlapping stripe sets, a Sync loop, and flushes whose
// freeze takes every stripe lock. Every write must land exactly once, in
// memory and across a reopen; a lock-order mistake hangs here.
func TestBatchesRaceSyncsAndFreezes(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, Options{Dir: dir, Shards: 8, FlushBytes: -1, CompactRuns: -1})
	const writers, batches, keys = 4, 50, 16
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.Sync()
			}
		}
	}()
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := e.Flush(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	ref := store.NewMemoryEngine(8)
	var refMu sync.Mutex
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				kvs := make([]store.KV, keys)
				for i := range kvs {
					ts := hlc.Timestamp(1 + (w*batches+b)*keys + i)
					kvs[i] = store.KV{Key: fmt.Sprintf("key-%d", (b*keys+i)%40), Version: v(fmt.Sprintf("w%d-b%d-%d", w, b, i), ts, uint64(ts))}
				}
				e.PutBatch(kvs)
				refMu.Lock()
				ref.PutBatch(kvs)
				refMu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(stop)
	bg.Wait()
	if err := e.Healthy(); err != nil {
		t.Fatal(err)
	}
	enginetest.RequireSameState(t, e, ref)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, Options{Dir: dir, Shards: 8, FlushBytes: -1})
	defer re.Close()
	enginetest.RequireSameState(t, re, ref)
}
