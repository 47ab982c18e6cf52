package sst

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"wren/internal/hlc"
	"wren/internal/obs"
	"wren/internal/store"
	"wren/internal/store/logrec"
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
			opts := Options{Dir: t.TempDir(), Shards: 2, FlushBytes: -1, CompactRuns: -1}
			e := mustOpen(t, opts)
			fillRun(t, e, "f-", 400, 64, 1)
			fillRun(t, e, "g-", 50, 64, 1000) // a second run, so Compact merges
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			e = mustOpen(t, opts)
			defer func() { _ = e.Close() }()
			e.Observe(obs.New("core dc0/p2"))
			degraded, cancel := obs.Subscribe("sst.degraded")
			defer cancel()
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
			select {
			case ev := <-degraded:
				if want := fmt.Sprintf("core dc0/p2: sst.degraded err=%v dir=%s", err, opts.Dir); ev.String() != want {
					t.Fatalf("degraded event %q, want %q", ev, want)
				}
			default:
				t.Fatal("the fault logged no sst.degraded event")
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
			e := mustOpen(t, Options{Dir: t.TempDir(), Shards: 2, FlushBytes: -1, CompactRuns: -1})
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

// flipByte inverts one byte of the file at path, in place, so the open
// engine's shared mapping sees it.
func flipByte(t *testing.T, path string, at int) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, int64(at)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{b[0] ^ 0xff}, int64(at)); err != nil {
		t.Fatal(err)
	}
}

// TestProbeChecksumsWhatItWalks pins the verification contract of the
// newest-first layout: a point probe checksums every record it walks, and
// the records it stops short of are left to the readers that walk them
// all. A flipped byte in the newest record of a flushed chain fails the
// point read; one in the oldest record, which that read never reaches,
// fails the next compaction, whose iterator checks every record.
func TestProbeChecksumsWhatItWalks(t *testing.T) {
	const key = "chk"
	for _, tc := range []struct {
		name   string
		newest bool
	}{{"newest record, point read", true}, {"oldest record, compaction", false}} {
		t.Run(tc.name, func(t *testing.T) {
			e := mustOpen(t, Options{Dir: t.TempDir(), Shards: 2, FlushBytes: -1, CompactRuns: -1})
			defer func() { _ = e.Close() }()
			for i := 0; i < 8; i++ {
				e.Put(fmt.Sprintf("a-%d", i), v("neighbour-value", 1, uint64(100+i)))
				e.Put(key, v(fmt.Sprintf("value-%d-of-the-chain", i), hlc.Timestamp(1+i), uint64(1+i)))
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			r := e.tabs.Load().runs[0]
			data, err := os.ReadFile(r.path)
			if err != nil {
				t.Fatal(err)
			}
			data = data[:r.dataSize] // the fence keys in the footer are not records
			at := bytes.LastIndex(data, []byte(key))
			if tc.newest {
				at = bytes.Index(data, []byte(key))
			}
			flipByte(t, r.path, at+len(key)+4) // inside the value
			want := "corrupt record in run block " + r.path
			if tc.newest {
				e.ReadVisible(key, alwaysVisible)
			} else {
				if got := e.ReadVisible(key, alwaysVisible); got == nil || string(got.Value) != "value-7-of-the-chain" {
					t.Fatalf("ReadVisible = %+v, want the newest version", got)
				}
				if err := e.Healthy(); err != nil {
					t.Fatalf("Healthy() = %v: the point read walked past the newest record", err)
				}
				fillRun(t, e, "z-", 10, 8, 100) // a second run, so Compact merges
				e.Compact()
				want = "corrupt record in run " + r.path
			}
			if err := e.Healthy(); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Healthy() = %v, want %q", err, want)
			}
		})
	}
}

// TestCorruptLiveRecordOfPrunedChain: GC leaves the newest 5 of a key's 8
// file versions live, then a byte flips in its third-newest record. The
// run iterator stops there holding a chain of the 2 records before it,
// fewer than the overlay's live count; Scan and Compact must report the
// corrupt record through Healthy, not slice that short chain out of range.
func TestCorruptLiveRecordOfPrunedChain(t *testing.T) {
	const key = "chk"
	for _, reader := range []string{"scan", "compaction"} {
		t.Run(reader, func(t *testing.T) {
			e := mustOpen(t, Options{Dir: t.TempDir(), Shards: 2, FlushBytes: -1, CompactRuns: -1})
			defer func() { _ = e.Close() }()
			for i := 0; i < 8; i++ {
				e.Put(fmt.Sprintf("a-%d", i), v("neighbour-value", 1, uint64(100+i)))
				e.Put(key, v(fmt.Sprintf("value-%d-of-the-chain", i), hlc.Timestamp(1+i), uint64(1+i)))
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			if removed := e.GC(4); removed != 3 {
				t.Fatalf("GC(4) removed %d versions, want 3", removed)
			}
			r := e.tabs.Load().runs[0]
			data, err := os.ReadFile(r.path)
			if err != nil {
				t.Fatal(err)
			}
			at := bytes.Index(data[:r.dataSize], []byte("value-5-of-the-chain")) // UT 6
			if at < 0 {
				t.Fatal("record of UT 6 not found in the run")
			}
			flipByte(t, r.path, at)
			if reader == "scan" {
				if err := e.Scan("", "", alwaysVisible, func(string, *store.Version) bool { return true }); err == nil {
					t.Fatal("Scan over the corrupt record returned no error")
				}
			} else {
				fillRun(t, e, "z-", 10, 8, 100) // a second run, so Compact merges
				e.Compact()
			}
			want := "corrupt record in run " + r.path
			if err := e.Healthy(); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Healthy() = %v, want %q", err, want)
			}
		})
	}
}

// TestOpenRefusesRunFormat2: a run whose footer says format 2 (chains
// stored oldest first) fails Open with an error that names the format, and
// the directory is left as it was — there is no migration.
func TestOpenRefusesRunFormat2(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, Options{Dir: dir, Shards: 1, FlushBytes: -1})
	fillRun(t, e, "f2-", 20, 8, 1)
	path := e.tabs.Load().runs[0].path
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flen := int(binary.LittleEndian.Uint32(data[len(data)-runTrailerSize:]))
	frame := data[len(data)-runTrailerSize-flen : len(data)-runTrailerSize]
	payload := frame[logrec.HeaderSize:]
	if payload[0] != runFormat {
		t.Fatalf("footer format byte %d, want %d", payload[0], runFormat)
	}
	payload[0] = 2
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, err = Open(Options{Dir: dir, Shards: 1, FlushBytes: -1})
	if err == nil {
		_ = e.Close()
		t.Fatal("Open served a run in format 2")
	}
	if !strings.Contains(err.Error(), "run format 2") || !strings.Contains(err.Error(), path) {
		t.Fatalf("Open = %v, want a refusal naming run format 2 and %s", err, path)
	}
	after, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("the refused Open changed the directory: %d entries, was %d", len(after), len(before))
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("refused run file must be left in place: %v", err)
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
	e := mustOpen(t, Options{Dir: dir, Shards: 2, FlushBytes: -1, CompactRuns: -1, BlockBytes: 512})
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
