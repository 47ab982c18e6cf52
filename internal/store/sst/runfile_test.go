package sst

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"wren/internal/hlc"
	"wren/internal/store"
	"wren/internal/store/wal"
)

// runHolding returns the path of the live run whose first block starts
// with prefix.
func runHolding(t *testing.T, e *Engine, prefix string) string {
	t.Helper()
	for _, r := range e.tabs.Load().runs {
		if strings.HasPrefix(r.fences[0].firstKey, prefix) {
			return r.path
		}
	}
	t.Fatalf("no run holds %q", prefix)
	return ""
}

// TestRunFaultIsAnError: a run file truncated behind the open engine turns
// every later touch of its mapping into SIGBUS. Each reader of the mapping
// must take that as a failed read — return, degrade Healthy() naming the
// file — and not take the process down with it.
func TestRunFaultIsAnError(t *testing.T) {
	const key = "f-000100"
	ops := []struct {
		name string
		run  func(t *testing.T, e *Engine)
	}{
		{"ReadVisible", func(t *testing.T, e *Engine) {
			if got := e.ReadVisible(key, alwaysVisible); got == nil || string(got.Value) != "mem" {
				t.Fatalf("ReadVisible = %+v, want the memtable's version", got)
			}
		}},
		{"ReadVisibleBatchInto", func(t *testing.T, e *Engine) {
			out := e.ReadVisibleBatchInto([]string{key}, alwaysVisible, make([]*store.Version, 1))
			if got := out[0]; got == nil || string(got.Value) != "mem" {
				t.Fatalf("ReadVisibleBatchInto = %+v, want the memtable's version", got)
			}
		}},
		{"VersionsOf", func(t *testing.T, e *Engine) {
			if got := e.VersionsOf(key); got != 1 {
				t.Fatalf("VersionsOf = %d, want the memtable's 1", got)
			}
		}},
		{"Scan", func(t *testing.T, e *Engine) {
			err := e.Scan("", "", alwaysVisible, func(string, *store.Version) bool { return true })
			if err == nil || !strings.Contains(err.Error(), "fault at 0x") {
				t.Fatalf("Scan over a truncated run returned %v, want the fault", err)
			}
		}},
		{"GC stream", func(t *testing.T, e *Engine) {
			if !e.gcStream {
				t.Fatal("the first pass after a reopen should stream every run")
			}
			e.GCStats(hlc.Timestamp(10_000))
		}},
		{"Compact", func(t *testing.T, e *Engine) { e.Compact() }},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			opts := Options{Dir: t.TempDir(), Shards: 2, Fsync: wal.FsyncNever, FlushBytes: -1, CompactRuns: -1}
			e := mustOpen(t, opts)
			fillRun(t, e, "f-", 400, 64, 1)
			fillRun(t, e, "g-", 50, 64, 1000) // a second run, so Compact merges
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			e = mustOpen(t, opts)
			defer func() { _ = e.Close() }()
			e.Put(key, v("mem", 5000, 9999))
			path := runHolding(t, e, "f-")
			if err := os.Truncate(path, 0); err != nil {
				t.Fatal(err)
			}
			op.run(t, e)
			err := e.Healthy()
			if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "fault at 0x") {
				t.Fatalf("Healthy() = %v, want the fault in %s", err, path)
			}
		})
	}
}

// TestCorruptRunRecordIsAnError: a run record whose payload no longer
// matches its CRC (one byte flipped in the file, which the shared mapping
// sees) degrades Healthy() whichever reader walks it — VersionsOf as well
// as a point read.
func TestCorruptRunRecordIsAnError(t *testing.T) {
	const key = "c-000123"
	ops := []struct {
		name string
		run  func(e *Engine)
	}{
		{"VersionsOf", func(e *Engine) { e.VersionsOf(key) }},
		{"ReadVisible", func(e *Engine) { e.ReadVisible(key, alwaysVisible) }},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			e := mustOpen(t, Options{Dir: t.TempDir(), Shards: 2, Fsync: wal.FsyncNever, FlushBytes: -1, CompactRuns: -1})
			defer func() { _ = e.Close() }()
			fillRun(t, e, "c-", 400, 64, 1)
			path := runHolding(t, e, "c-")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			at := bytes.Index(data, []byte(key)) // the record's key field; the fences come after the data
			if at < 0 {
				t.Fatalf("%s not found in %s", key, path)
			}
			at += len(key) + 4 // inside the value
			f, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt([]byte{data[at] ^ 0xff}, int64(at)); err != nil {
				t.Fatal(err)
			}
			_ = f.Close()
			if err := e.Healthy(); err != nil {
				t.Fatalf("Healthy() = %v before any read", err)
			}
			op.run(e)
			if err := e.Healthy(); err == nil || !strings.Contains(err.Error(), "corrupt record in run block "+path) {
				t.Fatalf("Healthy() = %v, want the corrupt record in %s", err, path)
			}
		})
	}
}

// TestRunMappingsReleased is the mapping counterpart of an fd-leak check:
// a retired run stays mapped exactly as long as a reader pins it, and an
// engine that is closed leaves none of its runs mapped. Use after unmap is
// TestScanRacesCompaction's to catch, under -race.
func TestRunMappingsReleased(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/self/maps")
	}
	dir := t.TempDir()
	mapped := func() []string {
		t.Helper()
		maps, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Fatal(err)
		}
		var runs []string
		for _, line := range strings.Split(string(maps), "\n") {
			if strings.Contains(line, filepath.Join(dir, "run-")) {
				runs = append(runs, line)
			}
		}
		return runs
	}
	e := mustOpen(t, Options{Dir: dir, Shards: 2, Fsync: wal.FsyncNever, FlushBytes: -1, CompactRuns: -1, BlockBytes: 512})
	closed := false
	defer func() {
		if !closed {
			_ = e.Close()
		}
	}()
	const nKeys = 200
	ut := hlc.Timestamp(0)
	writeRun := func() {
		t.Helper()
		for i := 0; i < nKeys; i++ {
			ut++
			e.Put(fmt.Sprintf("k-%04d", i), v("v", ut, uint64(ut)))
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	writeRun()

	stop := make(chan struct{})
	scanned := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				scanned <- nil
				return
			default:
			}
			n := 0
			if err := e.Scan("", "", alwaysVisible, func(string, *store.Version) bool { n++; return true }); err != nil || n != nKeys {
				scanned <- fmt.Errorf("scan yielded %d of %d keys (err %v)", n, nKeys, err)
				return
			}
		}
	}()
	for cycle := 0; cycle < 20; cycle++ {
		writeRun()
		e.Compact()
		if got := e.Runs(); got != 1 {
			t.Fatalf("cycle %d: Runs() = %d after Compact, want 1", cycle, got)
		}
	}
	close(stop)
	if err := <-scanned; err != nil {
		t.Fatal(err)
	}
	if lines := mapped(); len(lines) != 1 || strings.Contains(lines[0], "(deleted)") {
		t.Fatalf("after 20 flush + compaction cycles, run mappings are\n%s\nwant exactly the one live run", strings.Join(lines, "\n"))
	}

	r := e.tabs.Load().runs[0]
	it := newRunIterator(e, r)
	writeRun()
	e.Compact() // retires r and deletes its file
	if !strings.Contains(strings.Join(mapped(), "\n"), r.path+" (deleted)") {
		t.Fatalf("retired run %s, pinned by an iterator, is not mapped any more", r.path)
	}
	it.close()
	if lines := strings.Join(mapped(), "\n"); strings.Contains(lines, r.path) {
		t.Fatalf("retired run still mapped after its last reference went:\n%s", lines)
	}

	closed = true
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if lines := mapped(); len(lines) != 0 {
		t.Fatalf("runs still mapped after Close:\n%s", strings.Join(lines, "\n"))
	}
}
