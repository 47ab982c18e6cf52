package fsutil_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"wren/internal/store/fsutil"
	"wren/internal/store/fsutil/crashfs"
	"wren/internal/store/logrec"
	"wren/internal/wire"
)

func newCrashFS(t *testing.T, dir string, seed int64) *crashfs.FS {
	t.Helper()
	c, err := crashfs.New(dir, seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSmallFilesSurvivePowerCut cuts the power after every operation of a
// directory's first claim (the engine-type marker) and its shard-count
// meta file, and claims each image again: both files must read back as
// written or not at all — never empty — and once their writes returned,
// as written.
func TestSmallFilesSurvivePowerCut(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		dir := t.TempDir()
		c := newCrashFS(t, dir, seed)
		lock, err := fsutil.ClaimDir(c, dir, "wal")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fsutil.LoadOrInitShards(c, dir, "wal.meta", 4, 64); err != nil {
			t.Fatal(err)
		}
		lock.Close()
		for k := 0; k <= c.Ops(); k++ {
			context := fmt.Sprintf("seed %d, power cut after operation %d of %d", seed, k, c.Ops())
			img := t.TempDir()
			if err := c.Image(k, img); err != nil {
				t.Fatal(err)
			}
			ic := newCrashFS(t, img, 0)
			lock, err := fsutil.ClaimDir(ic, img, "wal")
			if err != nil {
				t.Fatalf("%s: claim: %v", context, err)
			}
			n, err := fsutil.LoadOrInitShards(ic, img, "wal.meta", 8, 64)
			if err != nil || (n != 4 && (n != 8 || k == c.Ops())) {
				t.Fatalf("%s: shard count %d, %v; want 4 (or 8, if the write is lost)", context, n, err)
			}
			lock.Close()
		}
	}
}

// TestTailNeverAppendsBehindATornRecord sweeps Tail's rollback-or-freeze:
// a history of appends and datasyncs runs once per recorded operation with
// that operation failing (a write writes half its bytes), and once more
// with the operation after it failing too (the rollback's truncate). Every
// record Append reported landed must scan back from the file in order, with
// nothing torn behind the last one unless the tail froze; and a power cut
// after the history must leave a prefix of them holding everything the
// last successful datasync covered.
func TestTailNeverAppendsBehindATornRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var recs [][]byte
	for i := 0; i < 12; i++ {
		enc := wire.NewEncoder()
		payload := bytes.Repeat([]byte{byte('a' + i)}, 100+rng.Intn(9000))
		logrec.AppendFrame(enc, func(e *wire.Encoder) { e.BytesField(payload) })
		recs = append(recs, bytes.Clone(enc.Bytes()))
	}
	scan := func(buf []byte) (got [][]byte) {
		logrec.ScanFrames(buf, func(payload []byte) error {
			got = append(got, bytes.Clone(payload))
			return nil
		})
		return got
	}
	run := func(fail ...int) int {
		dir := t.TempDir()
		path := filepath.Join(dir, "log")
		c := newCrashFS(t, dir, int64(len(fail)))
		c.FailAt(fail...)
		context := fmt.Sprintf("operations %v failing", fail)
		f, err := c.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return c.Ops() // the create failed: no log
		}
		defer f.Close()
		named := c.SyncDir(dir) == nil // else a power cut may take the file
		tail := fsutil.Tail{F: f}
		var landed [][]byte
		synced := 0
		for i, rec := range recs {
			if tail.Append(rec, func(error) {}) {
				landed = append(landed, scan(rec)[0])
			}
			if i%4 == 3 && f.Datasync() == nil && named {
				synced = len(landed)
			}
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := scan(buf); len(got) != len(landed) || (len(got) > 0 && !bytes.Equal(bytes.Join(got, nil), bytes.Join(landed, nil))) {
			t.Fatalf("%s: the file scans to %d records, %d landed", context, len(got), len(landed))
		}
		if !tail.Failed && int64(len(buf)) != tail.Size {
			t.Fatalf("%s: %d bytes on file behind %d of records", context, int64(len(buf))-tail.Size, tail.Size)
		}
		img := t.TempDir()
		if err := c.Image(c.Ops(), img); err != nil {
			t.Fatal(err)
		}
		buf, err = os.ReadFile(filepath.Join(img, "log"))
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		got := scan(buf)
		if len(got) < synced || len(got) > len(landed) || !bytes.Equal(bytes.Join(got, nil), bytes.Join(landed[:len(got)], nil)) {
			t.Fatalf("%s: a power cut left %d records, want a prefix of the %d landed holding the %d synced",
				context, len(got), len(landed), synced)
		}
		return c.Ops()
	}
	n := run()
	for k := 1; k <= n; k++ {
		run(k)
		run(k, k+1)
	}
}
