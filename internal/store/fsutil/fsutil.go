// Package fsutil is the one file-op seam of the storage engines and the
// transaction log: under internal/store and internal/txlog every operation
// on a durable file — open or create, read, write, write-at, truncate,
// seek, sync, datasync, rename, remove, read-dir, sync-dir — goes through
// an FS and its Files, and nothing else touches a file
// (TestArch/file-op-seam in internal/archtest checks, under go test ./...).
// OS is the production FS; directories are made with os.MkdirAll and taken
// as durable.
//
// The seam is what lets a test cut the power: crashfs (test-only) sits over
// a real directory, records every operation, and writes what a power loss
// after any one of them may leave — any subset of the 4 KiB pages written
// since a file's last sync reverted, a size grown since that sync possibly
// not kept, and creates, renames and removes since their directory's last
// sync possibly undone. Reads need no model: files are read back from the
// real directory, and a sealed run is mapped (MapFile) only after its
// rename and directory sync, so no power loss undoes a mapped byte.
//
// It also holds the disciplines every durable log must follow identically:
// directory locking with an engine-type marker (ClaimDir), the atomic write
// of a small file, the recover-on-open of an appended log (OpenTail) and
// its rollback-or-freeze append (Tail).
package fsutil

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
)

// FS is the file-op seam: the directory-level operations.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	ReadFile(name string) ([]byte, error)
	ReadDir(dir string) ([]os.DirEntry, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// SyncDir makes the creates, renames and removes in dir survive a
	// power loss.
	SyncDir(dir string) error
}

// File is an open file of an FS. Sync makes its data and metadata stable;
// Datasync its data and the metadata a later read needs to find it (size,
// block map), leaving the timestamps behind.
type File interface {
	io.ReadWriteSeeker
	io.ReaderAt
	io.WriterAt
	io.Closer
	Truncate(size int64) error
	Sync() error
	Datasync() error
}

// OS is the production FS: the operating system's files.
var OS FS = osFS{}

type osFS struct{}

type osFile struct{ *os.File }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) ReadFile(name string) ([]byte, error)      { return os.ReadFile(name) }
func (osFS) ReadDir(dir string) ([]os.DirEntry, error) { return os.ReadDir(dir) }
func (osFS) Rename(oldpath, newpath string) error      { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                  { return os.Remove(name) }

// SyncDir fsyncs the directory itself. It and Datasync are the OS side of
// the seam: tests run crashfs in their place, so no power-cut test fails
// without their bodies (TestDatasync only checks that Datasync reaches the
// descriptor); the sweeps fail without the calls of them.
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (f osFile) Datasync() error { return datasync(f.File) }

// lockName is the advisory-lock file every durable engine locks,
// whatever its type, so that no two engines of any type can both
// "exclusively" own the same directory.
const lockName = "store.lock"

// markerName is the engine-type marker file written on first claim, so a
// directory created by one engine type fails fast when opened by another
// instead of silently serving empty state.
const markerName = "store.engine"

// ClaimDir takes an exclusive advisory lock on the data directory and
// verifies its engine-type marker, enforcing the one-engine-per-directory
// requirement in both dimensions: a second engine of ANY type — or a
// second server process pointed at the same data dir — fails at startup
// instead of silently interleaving appends, and a directory created by a
// different engine type (whose files this engine would ignore, appearing
// empty) is rejected instead of adopted. The lock dies with the process,
// so a crash never leaves a stale lock behind (it is not durable state,
// and not part of the seam); the marker is written atomically on first
// claim. Closing the returned lock releases it.
func ClaimDir(fsys FS, dir, engine string) (io.Closer, error) {
	f, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lock %s: %w", dir, err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("data dir %s is in use by another engine: %w", dir, err)
	}
	b, err := loadOrInit(fsys, filepath.Join(dir, markerName), engine+"\n")
	if err == nil && strings.TrimSpace(string(b)) != engine {
		err = fmt.Errorf("data dir %s was created by the %q engine, not %q — refusing to adopt it",
			dir, strings.TrimSpace(string(b)), engine)
	}
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	return f, nil
}

// loadOrInit returns the contents of the small file at path, first writing
// it as init if it does not exist. The write is atomic across a power
// loss: a temp file is written and synced, renamed over path, and the
// directory synced. Without the file sync the rename can survive a power
// loss that the contents do not, leaving path empty.
func loadOrInit(fsys FS, path, init string) ([]byte, error) {
	b, err := fsys.ReadFile(path)
	if err == nil {
		return b, nil
	}
	if !os.IsNotExist(err) {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	_, err = io.WriteString(f, init)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err == nil {
		err = fsys.SyncDir(filepath.Dir(path))
	}
	if err != nil {
		return nil, fmt.Errorf("write %s: %w", path, err)
	}
	return []byte(init), nil
}
