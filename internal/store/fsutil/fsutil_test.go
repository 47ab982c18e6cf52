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
	f, err := OS.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	want := append(make([]byte, 4096), "record"...)
	if _, err := f.Write(want); err != nil {
		t.Fatal(err)
	}
	if err := f.Datasync(); err != nil {
		t.Fatalf("Datasync after append: %v", err)
	}
	copy(want[100:], "overwrite")
	if _, err := f.WriteAt([]byte("overwrite"), 100); err != nil {
		t.Fatal(err)
	}
	if err := f.Datasync(); err != nil {
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
	if err := f.Datasync(); err == nil {
		t.Fatal("Datasync on a closed file returned nil")
	}
}

// TestMapFile: the mapping holds the file's bytes, is shared (a write
// through another descriptor shows in it), outlives the file's name, and an
// empty file maps to nothing.
func TestMapFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	want := []byte("mapped run bytes")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := MapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("mapped %q, want %q", data, want)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("M"), 0); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	if data[0] != 'M' {
		t.Fatalf("mapping does not see a write through another descriptor: %q", data)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if string(data[1:]) != string(want[1:]) {
		t.Fatalf("mapping changed after unlink: %q", data)
	}
	if err := Unmap(data); err != nil {
		t.Fatal(err)
	}

	empty := filepath.Join(dir, "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if data, err := MapFile(empty); err != nil || data != nil {
		t.Fatalf("MapFile(empty) = %d bytes, %v; want nil, nil", len(data), err)
	}
	if _, err := MapFile(filepath.Join(dir, "missing")); !os.IsNotExist(err) {
		t.Fatalf("MapFile(missing) error = %v, want not-exist", err)
	}
}
