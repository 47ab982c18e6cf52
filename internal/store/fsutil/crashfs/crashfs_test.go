package crashfs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func mustNew(t *testing.T, dir string, seed int64) *FS {
	t.Helper()
	c, err := New(dir, seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// image returns the files of the image after operation k, by name.
func image(t *testing.T, c *FS, k int) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	if err := c.Image(k, dir); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, ent := range ents {
		if files[ent.Name()], err = os.ReadFile(filepath.Join(dir, ent.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// TestImageModel pins the crash model over 64 seeds: a synced page and a
// synced name always survive; a page written since the sync, a size grown
// since it, and a create, rename or remove since the directory's sync each
// show up both kept and undone; and the image after operation 0 is the
// directory as New found it.
func TestImageModel(t *testing.T) {
	page := func(b byte) []byte { return bytes.Repeat([]byte{b}, pageSize) }
	seen := map[string]bool{}
	for seed := int64(0); seed < 64; seed++ {
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, "old"), []byte("there before"), 0o644); err != nil {
			t.Fatal(err)
		}
		c := mustNew(t, sub, seed)
		f, err := c.OpenFile(filepath.Join(sub, "f"), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(bytes.Join([][]byte{page('a'), page('a'), page('a')}, nil))
		f.Sync()
		c.SyncDir(sub)
		f.WriteAt(page('b'), pageSize)
		f.WriteAt(page('c'), 3*pageSize)
		g, _ := c.OpenFile(filepath.Join(sub, "g.tmp"), os.O_CREATE|os.O_WRONLY, 0o644)
		g.Write([]byte("g"))
		g.Sync()
		g.Close()
		c.Rename(filepath.Join(sub, "g.tmp"), filepath.Join(sub, "g"))
		c.Remove(filepath.Join(sub, "old"))
		f.Close()

		if got := image(t, c, 0); len(got) != 1 || string(got["old"]) != "there before" {
			t.Fatalf("seed %d: image before any operation %q, want only old", seed, got)
		}
		got := image(t, c, c.Ops())
		img := got["f"]
		if len(img) != 3*pageSize && len(img) != 4*pageSize {
			t.Fatalf("seed %d: f is %d bytes, want 3 or 4 pages", seed, len(img))
		}
		if !bytes.Equal(img[:pageSize], page('a')) || !bytes.Equal(img[2*pageSize:3*pageSize], page('a')) {
			t.Fatalf("seed %d: a synced page of f changed", seed)
		}
		seen["page 1 kept"] = seen["page 1 kept"] || img[pageSize] == 'b'
		seen["page 1 undone"] = seen["page 1 undone"] || img[pageSize] == 'a'
		seen["size undone"] = seen["size undone"] || len(img) == 3*pageSize
		if len(img) == 4*pageSize {
			seen["page 3 kept"] = seen["page 3 kept"] || img[3*pageSize] == 'c'
			seen["page 3 undone"] = seen["page 3 undone"] || img[3*pageSize] == 0
		}
		for _, name := range []string{"old", "g", "g.tmp"} {
			_, ok := got[name]
			seen[name+" present"] = seen[name+" present"] || ok
			seen[name+" absent"] = seen[name+" absent"] || !ok
		}
	}
	for _, want := range []string{"page 1 kept", "page 1 undone", "size undone", "page 3 kept", "page 3 undone",
		"old present", "old absent", "g present", "g absent", "g.tmp present", "g.tmp absent"} {
		if !seen[want] {
			t.Errorf("no seed of 64 gave %s", want)
		}
	}
}

// TestFailAt: a failing write is a short write of half the bytes and
// counts as the operation; a failing truncate changes nothing.
func TestFailAt(t *testing.T) {
	dir := t.TempDir()
	c := mustNew(t, dir, 1)
	c.FailAt(2, 3)
	f, err := c.OpenFile(filepath.Join(dir, "f"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if n, err := f.Write([]byte("abcdef")); n != 3 || !errors.Is(err, ErrFault) {
		t.Fatalf("failing write = %d, %v; want 3, ErrFault", n, err)
	}
	if err := f.Truncate(0); !errors.Is(err, ErrFault) {
		t.Fatalf("failing truncate = %v, want ErrFault", err)
	}
	if n, err := f.Write([]byte("gh")); n != 2 || err != nil {
		t.Fatalf("write after the faults = %d, %v", n, err)
	}
	if b, _ := os.ReadFile(filepath.Join(dir, "f")); string(b) != "abcgh" {
		t.Fatalf("file holds %q, want abcgh", b)
	}
	if c.Ops() != 4 || c.Find(Write, "f") != 2 || c.Find(Failed, "*") != 3 {
		t.Fatalf("%d operations, write at %d, failure at %d; want 4, 2, 3", c.Ops(), c.Find(Write, "f"), c.Find(Failed, "*"))
	}
}
