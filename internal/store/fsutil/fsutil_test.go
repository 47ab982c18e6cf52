package fsutil

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestDatasync: what Datasync covered is what a fresh handle reads back,
// for an append (the size moves) and for an overwrite in place (it does
// not); on a closed file it is an error, not a sync of whatever file got
// the descriptor next.
func TestDatasync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	want := append(make([]byte, 4096), "record"...)
	if _, err := f.Write(want); err != nil {
		t.Fatal(err)
	}
	if err := Datasync(f); err != nil {
		t.Fatalf("Datasync after append: %v", err)
	}
	copy(want[100:], "overwrite")
	if _, err := f.WriteAt([]byte("overwrite"), 100); err != nil {
		t.Fatal(err)
	}
	if err := Datasync(f); err != nil {
		t.Fatalf("Datasync after overwrite: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read back %d bytes that differ from the %d written", len(got), len(want))
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := Datasync(f); err == nil {
		t.Fatal("Datasync on a closed file returned nil")
	}
}
