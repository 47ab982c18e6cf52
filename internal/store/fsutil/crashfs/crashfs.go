// Package crashfs is a test-only fsutil.FS that cuts the power. It sits
// over a real directory and does every operation there, so the code under
// test reads, lists and maps real files; only syncs stop short of the
// disk. Beside the real files it records, numbered from 1, every operation
// that changes what a power loss may leave: a create, a write, a truncate,
// a file sync (Sync and Datasync alike make the file's data and size
// stable), a rename, a remove and a directory sync. Reads, seeks, closes
// and listings change nothing a power loss could undo and are not
// recorded.
//
// Image(k, dir) writes into dir what a power loss right after operation k
// may leave, drawn from the seed the FS was made with:
//
//   - each 4 KiB page written since its file's last sync holds, with
//     probability 1/2, what it held at that sync (zeros past the size the
//     sync saw);
//   - a file that grew since that sync is cut back to that size with
//     probability 1/4;
//   - each create, rename and remove since its directory's last sync is
//     undone with probability 1/2 (a rename's directory is its new name's).
//
// Files present when the FS is made count as synced. Directories are
// taken as durable: only files are modelled.
//
// FailAt injects faults: a numbered operation fails with ErrFault instead.
// A failing write first writes the first half of its bytes — a short
// write, which is what the operation records; any other failing operation
// changes nothing, but still takes its number.
//
// Only tests may import this package (TestArch/file-op-seam/crashfs-test-only
// in internal/archtest checks, under go test ./...).
package crashfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"wren/internal/store/fsutil"
)

// ErrFault is the error of an operation FailAt made fail.
var ErrFault = errors.New("crashfs: injected fault")

const pageSize = 4096

// Kind names a recorded operation.
type Kind int

const (
	Create   Kind = iota + 1 // a new file's name
	Write                    // bytes at an offset
	Truncate                 // a file's size set
	Sync                     // a file's data and size made stable
	Rename                   // a name moved
	Remove                   // a name removed
	SyncDir                  // a directory's names made stable
	Failed                   // an operation FailAt failed, with no effect
)

// op is one recorded operation. path is the name it acts on (a rename's
// old name, a directory sync's directory; for a write, truncate or sync,
// the file's name when it was opened), to a rename's new name.
type op struct {
	kind     Kind
	path, to string
	ino      int
	off      int64 // a write's offset, a truncate's size
	data     []byte
}

// FS is the crash-modelling fsutil.FS over one real directory. It is safe
// for concurrent use; operations are recorded in the order they are done.
type FS struct {
	root string
	seed int64

	mu      sync.Mutex
	ops     []op
	names   map[string]int // path → inode, as the directory is now
	inos    int            // inodes handed out
	initial []op           // the files present at New, as writes
	fail    map[int]bool
	st      *state // replay cache: the model after st.k operations
}

var _ fsutil.FS = (*FS)(nil)

// New returns an FS over the directory root. The regular files already
// under it count as synced.
func New(root string, seed int64) (*FS, error) {
	c := &FS{root: filepath.Clean(root), seed: seed, names: map[string]int{}, fail: map[int]bool{}}
	err := filepath.WalkDir(c.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		data, err := os.ReadFile(path)
		c.inos++
		c.names[path] = c.inos
		c.initial = append(c.initial, op{kind: Write, path: path, ino: c.inos, data: data})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("crashfs: %w", err)
	}
	return c, nil
}

// Ops returns the number of operations recorded so far.
func (c *FS) Ops() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ops)
}

// Find returns the number of the first recorded operation of kind whose
// file's base name matches the glob pattern (a rename's new name), or 0.
func (c *FS) Find(kind Kind, pattern string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, o := range c.ops {
		name := o.path
		if o.kind == Rename {
			name = o.to
		}
		if ok, _ := filepath.Match(pattern, filepath.Base(name)); ok && o.kind == kind {
			return i + 1
		}
	}
	return 0
}

// FailAt makes the numbered operations fail (see the package comment).
func (c *FS) FailAt(ops ...int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range ops {
		c.fail[n] = true
	}
}

// failing reports whether the next operation is one FailAt named, and
// records it as Failed if so. Caller holds mu.
func (c *FS) failing() bool {
	if !c.fail[len(c.ops)+1] {
		return false
	}
	c.ops = append(c.ops, op{kind: Failed})
	return true
}

// OpenFile implements fsutil.FS. A name the model does not know is
// created with O_EXCL, so a file put under root behind the FS's back is
// an error rather than a silent divergence.
func (c *FS) OpenFile(name string, flag int, perm os.FileMode) (fsutil.File, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	name = filepath.Clean(name)
	ino, exists := c.names[name]
	creates, truncates := !exists && flag&os.O_CREATE != 0, exists && flag&os.O_TRUNC != 0
	if (creates || truncates) && c.failing() {
		return nil, ErrFault
	}
	if creates {
		flag |= os.O_EXCL
	}
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if creates {
		c.inos++
		ino = c.inos
		c.names[name] = ino
		c.ops = append(c.ops, op{kind: Create, path: name, ino: ino})
	}
	if truncates {
		c.ops = append(c.ops, op{kind: Truncate, path: name, ino: ino})
	}
	return &file{c: c, f: f, path: name, ino: ino}, nil
}

// ReadFile implements fsutil.FS.
func (c *FS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// ReadDir implements fsutil.FS.
func (c *FS) ReadDir(dir string) ([]os.DirEntry, error) { return os.ReadDir(dir) }

// Rename implements fsutil.FS.
func (c *FS) Rename(oldpath, newpath string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	ino, ok := c.names[oldpath]
	if !ok {
		return fmt.Errorf("crashfs: rename %s: not a file of the model", oldpath)
	}
	if c.failing() {
		return ErrFault
	}
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	delete(c.names, oldpath)
	c.names[newpath] = ino
	c.ops = append(c.ops, op{kind: Rename, path: oldpath, to: newpath, ino: ino})
	return nil
}

// Remove implements fsutil.FS.
func (c *FS) Remove(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	name = filepath.Clean(name)
	if c.failing() {
		return ErrFault
	}
	if err := os.Remove(name); err != nil {
		return err
	}
	c.ops = append(c.ops, op{kind: Remove, path: name, ino: c.names[name]})
	delete(c.names, name)
	return nil
}

// SyncDir implements fsutil.FS.
func (c *FS) SyncDir(dir string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failing() {
		return ErrFault
	}
	if _, err := os.Stat(dir); err != nil {
		return err
	}
	c.ops = append(c.ops, op{kind: SyncDir, path: filepath.Clean(dir)})
	return nil
}

// file is an open file of the FS: the real file, and its inode in the
// model.
type file struct {
	c    *FS
	f    *os.File
	path string
	ino  int
}

func (f *file) Read(b []byte) (int, error)                { return f.f.Read(b) }
func (f *file) ReadAt(b []byte, off int64) (int, error)   { return f.f.ReadAt(b, off) }
func (f *file) Seek(off int64, whence int) (int64, error) { return f.f.Seek(off, whence) }
func (f *file) Close() error                              { return f.f.Close() }
func (f *file) Datasync() error                           { return f.Sync() }

func (f *file) Write(b []byte) (int, error) {
	f.c.mu.Lock()
	defer f.c.mu.Unlock()
	off, err := f.f.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, err
	}
	return f.write(b, off, f.f.Write)
}

func (f *file) WriteAt(b []byte, off int64) (int, error) {
	f.c.mu.Lock()
	defer f.c.mu.Unlock()
	return f.write(b, off, func(b []byte) (int, error) { return f.f.WriteAt(b, off) })
}

// write does a write through do and records what landed. Caller holds
// c.mu.
func (f *file) write(b []byte, off int64, do func([]byte) (int, error)) (int, error) {
	short := f.c.fail[len(f.c.ops)+1]
	if short {
		b = b[:len(b)/2]
	}
	n, err := do(b)
	if n > 0 || short {
		f.c.ops = append(f.c.ops, op{kind: Write, path: f.path, ino: f.ino, off: off, data: slices.Clone(b[:n])})
	}
	if short && err == nil {
		err = ErrFault
	}
	return n, err
}

func (f *file) Truncate(size int64) error {
	f.c.mu.Lock()
	defer f.c.mu.Unlock()
	if f.c.failing() {
		return ErrFault
	}
	if err := f.f.Truncate(size); err != nil {
		return err
	}
	f.c.ops = append(f.c.ops, op{kind: Truncate, path: f.path, ino: f.ino, off: size})
	return nil
}

// Sync records the sync instead of doing it; a closed file fails as it
// would.
func (f *file) Sync() error {
	f.c.mu.Lock()
	defer f.c.mu.Unlock()
	if f.c.failing() {
		return ErrFault
	}
	if _, err := f.f.Seek(0, io.SeekCurrent); err != nil {
		return err
	}
	f.c.ops = append(f.c.ops, op{kind: Sync, path: f.path, ino: f.ino})
	return nil
}

// Image writes into dir, which must hold none of the files, what a power
// loss right after operation k (0 = before the first) may leave. The same
// FS, k and seed always give the same image.
func (c *FS) Image(k int, dir string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if k < 0 || k > len(c.ops) {
		return fmt.Errorf("crashfs: image after operation %d of %d", k, len(c.ops))
	}
	if c.st == nil || c.st.k > k {
		c.st = c.start()
	}
	for ; c.st.k < k; c.st.k++ {
		c.st.apply(c.ops[c.st.k])
	}
	rng := rand.New(rand.NewSource(c.seed*1_000_003 + int64(k)))
	names := maps.Clone(c.st.stable)
	for _, o := range c.st.pending {
		if rng.Intn(2) == 0 {
			continue // undone
		}
		switch o.kind {
		case Create:
			names[o.path] = o.ino
		case Rename:
			if names[o.path] == o.ino {
				delete(names, o.path)
			}
			names[o.to] = o.ino
		case Remove:
			if names[o.path] == o.ino {
				delete(names, o.path)
			}
		}
	}
	for _, path := range slices.Sorted(maps.Keys(names)) {
		rel, err := filepath.Rel(c.root, path)
		if err != nil {
			return err
		}
		dst := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(dst, c.st.inodes[names[path]].crash(rng), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// start is the model before the first operation.
func (c *FS) start() *state {
	st := &state{inodes: map[int]*inode{}, names: map[string]int{}, stable: map[string]int{}}
	for _, o := range c.initial {
		in := &inode{}
		in.cur.write(0, o.data)
		in.dur = in.cur.clone()
		st.inodes[o.ino], st.names[o.path], st.stable[o.path] = in, o.ino, o.ino
	}
	return st
}

// state is the model after k operations: every inode's contents now and
// at its last sync, and the names now and at each directory's last sync,
// with the operations on names since.
type state struct {
	k       int
	inodes  map[int]*inode
	names   map[string]int
	stable  map[string]int
	pending []op
}

func (st *state) apply(o op) {
	switch o.kind {
	case Create:
		st.inodes[o.ino] = &inode{}
		st.names[o.path] = o.ino
		st.pending = append(st.pending, o)
	case Write:
		st.inodes[o.ino].cur.write(o.off, o.data)
	case Truncate:
		st.inodes[o.ino].cur.truncate(o.off)
	case Sync:
		in := st.inodes[o.ino]
		in.dur = in.cur.clone()
	case Rename:
		delete(st.names, o.path)
		st.names[o.to] = o.ino
		st.pending = append(st.pending, o)
	case Remove:
		delete(st.names, o.path)
		st.pending = append(st.pending, o)
	case SyncDir:
		for path := range st.stable {
			if filepath.Dir(path) == o.path {
				delete(st.stable, path)
			}
		}
		for path, ino := range st.names {
			if filepath.Dir(path) == o.path {
				st.stable[path] = ino
			}
		}
		st.pending = slices.DeleteFunc(st.pending, func(p op) bool {
			name := p.path
			if p.kind == Rename {
				name = p.to
			}
			return filepath.Dir(name) == o.path
		})
	}
}

// inode is one file's contents now (cur) and at its last sync (dur).
type inode struct{ cur, dur contents }

// crash returns what the file may hold after a power loss.
func (in *inode) crash(rng *rand.Rand) []byte {
	img := in.cur.bytes()
	for i := range in.cur.pages {
		if in.cur.pages[i] == in.dur.page(i) || rng.Intn(2) != 0 {
			continue
		}
		old := new([pageSize]byte)
		if p := in.dur.page(i); p != nil {
			*old = *p
		}
		copy(img[i*pageSize:], old[:])
	}
	if in.cur.size > in.dur.size && rng.Intn(4) == 0 {
		img = img[:in.dur.size]
	}
	return img
}

// contents is a file's bytes as copy-on-write pages: a write replaces the
// pages it touches, so a sync's snapshot shares every page written before
// it, and a page written since is one the snapshot does not share. A nil
// page reads as zeros, as do the bytes of a page past the size.
type contents struct {
	pages []*[pageSize]byte
	size  int64
}

func (f *contents) page(i int) *[pageSize]byte {
	if i < len(f.pages) {
		return f.pages[i]
	}
	return nil
}

func (f contents) clone() contents { return contents{pages: slices.Clone(f.pages), size: f.size} }

func (f *contents) write(off int64, b []byte) {
	for len(b) > 0 {
		i := int(off / pageSize)
		for len(f.pages) <= i {
			f.pages = append(f.pages, nil)
		}
		p := new([pageSize]byte)
		if old := f.pages[i]; old != nil {
			*p = *old
		}
		n := copy(p[off%pageSize:], b)
		f.pages[i] = p
		off += int64(n)
		b = b[n:]
	}
	f.size = max(f.size, off)
}

func (f *contents) truncate(size int64) {
	if n := int((size + pageSize - 1) / pageSize); n < len(f.pages) {
		f.pages = f.pages[:n]
	}
	if i, o := int(size/pageSize), size%pageSize; o != 0 && i < len(f.pages) && f.pages[i] != nil {
		p := new([pageSize]byte)
		copy(p[:o], f.pages[i][:o])
		f.pages[i] = p
	}
	f.size = size
}

func (f *contents) bytes() []byte {
	b := make([]byte, f.size)
	for i, p := range f.pages {
		if p != nil && int64(i)*pageSize < f.size {
			copy(b[i*pageSize:], p[:])
		}
	}
	return b
}
