package shardlog

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"wren/internal/store/fsutil"
	"wren/internal/wire"
)

// newShard opens a fresh log file in dir for appending.
func newShard(t *testing.T, dir, name string) *Shard {
	t.Helper()
	f, err := fsutil.OS.OpenFile(filepath.Join(dir, name), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return &Shard{Tail: fsutil.Tail{F: f}, Enc: wire.NewEncoder()}
}

// appendRec buffers rec and appends it the way the engines do: under Mu.
func appendRec(s *Shard, rec string, onErr func(error)) {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	s.Enc.Reset()
	s.Enc.String(rec)
	s.AppendLocked(onErr)
}

// errCounter collects onErr calls, which syncFiles makes concurrently.
type errCounter struct {
	mu   sync.Mutex
	errs []error
}

func (c *errCounter) onErr(err error) {
	c.mu.Lock()
	c.errs = append(c.errs, err)
	c.mu.Unlock()
}

func (c *errCounter) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.errs)
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

func TestAppendAdvancesSizeAndDirties(t *testing.T) {
	dir := t.TempDir()
	s := newShard(t, dir, "log")
	var errs errCounter
	appendRec(s, "first", errs.onErr)
	one := int64(s.Enc.Len())
	if s.Size != one || !s.Dirty {
		t.Fatalf("after one append: Size=%d Dirty=%v, want %d true", s.Size, s.Dirty, one)
	}
	appendRec(s, "later", errs.onErr)
	if s.Size != 2*one || fileSize(t, filepath.Join(dir, "log")) != 2*one {
		t.Fatalf("after two appends: Size=%d file=%d, want %d", s.Size, fileSize(t, filepath.Join(dir, "log")), 2*one)
	}
	if errs.count() != 0 {
		t.Fatalf("onErr called: %v", errs.errs)
	}
}

func TestAppendNoOps(t *testing.T) {
	dir := t.TempDir()
	s := newShard(t, dir, "log")
	var errs errCounter
	s.Mu.Lock()
	s.AppendLocked(errs.onErr) // nothing buffered
	s.Mu.Unlock()
	if s.Size != 0 || s.Dirty {
		t.Fatalf("empty Enc: Size=%d Dirty=%v, want 0 false", s.Size, s.Dirty)
	}
	s.Failed = true
	appendRec(s, "dropped", errs.onErr)
	if s.Size != 0 || s.Dirty || fileSize(t, filepath.Join(dir, "log")) != 0 {
		t.Fatalf("Failed shard: Size=%d Dirty=%v file=%d, want nothing written", s.Size, s.Dirty, fileSize(t, filepath.Join(dir, "log")))
	}
	if errs.count() != 0 {
		t.Fatalf("onErr called: %v", errs.errs)
	}
}

func TestTakeAndSyncDirty(t *testing.T) {
	dir := t.TempDir()
	shards := []*Shard{newShard(t, dir, "a"), newShard(t, dir, "b"), newShard(t, dir, "c")}
	var errs errCounter
	appendRec(shards[0], "x", errs.onErr)
	appendRec(shards[2], "y", errs.onErr)

	if f := shards[1].TakeDirty(); f != nil {
		t.Fatal("TakeDirty returned a handle for a clean shard")
	}
	if f := shards[0].TakeDirty(); f != shards[0].F || shards[0].Dirty {
		t.Fatalf("TakeDirty = %v with Dirty=%v, want the shard's handle and Dirty cleared", f, shards[0].Dirty)
	}
	// An append racing in after the handle was taken marks the shard
	// again, so the next sync phase covers it.
	appendRec(shards[0], "z", errs.onErr)
	if !shards[0].Dirty {
		t.Fatal("an append after TakeDirty left Dirty clear")
	}
	if n := SyncDirty(shards, errs.onErr); n != 2 {
		t.Fatalf("SyncDirty = %d, want the 2 dirty shards", n)
	}
	for i, s := range shards {
		if s.Dirty {
			t.Fatalf("shard %d still Dirty after SyncDirty", i)
		}
	}
	if n := SyncDirty(shards, errs.onErr); n != 0 {
		t.Fatalf("second SyncDirty = %d, want 0", n)
	}
	if errs.count() != 0 {
		t.Fatalf("onErr called: %v", errs.errs)
	}
}

func TestSyncFilesErrors(t *testing.T) {
	dir := t.TempDir()
	closed := newShard(t, dir, "closed").F
	_ = closed.Close()
	good := newShard(t, dir, "good").F
	dev, err := fsutil.OS.OpenFile(os.DevNull, os.O_WRONLY, 0) // fsync on a character device fails with EINVAL
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()

	var errs errCounter
	syncFiles([]fsutil.File{closed}, errs.onErr)
	if errs.count() != 0 {
		t.Fatalf("a handle closed since it was captured is success, got %v", errs.errs)
	}
	syncFiles([]fsutil.File{closed, dev, good}, errs.onErr)
	if errs.count() != 1 {
		t.Fatalf("onErr called %d times for one failing sync: %v", errs.count(), errs.errs)
	}
}

// TestAppendFailureFreezes: when an append fails and so does its rollback,
// the shard freezes rather than append past a torn record.
func TestAppendFailureFreezes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	ro, err := fsutil.OS.OpenFile(path, os.O_RDONLY, 0) // read-only: the write fails, and so does the truncate
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	s := &Shard{Tail: fsutil.Tail{F: ro}, Enc: wire.NewEncoder()}
	var errs errCounter
	appendRec(s, "doomed", errs.onErr)
	if !s.Failed || s.Dirty || s.Size != 0 {
		t.Fatalf("after a failed append and rollback: Failed=%v Dirty=%v Size=%d, want true false 0", s.Failed, s.Dirty, s.Size)
	}
	if errs.count() != 2 {
		t.Fatalf("onErr called %d times, want the append and the rollback: %v", errs.count(), errs.errs)
	}
	appendRec(s, "after", errs.onErr)
	if errs.count() != 2 || fileSize(t, path) != 0 {
		t.Fatalf("a frozen shard appended: onErr %d times, file %d bytes", errs.count(), fileSize(t, path))
	}
}
