// Package fsutil holds the small filesystem disciplines every durable
// storage engine must follow identically: exclusive data-directory
// locking, directory fsyncs after renames/creations, the rollback-or-freeze
// append of a record log (Tail), and the WAL engine's persisted
// shard-count meta file that pins the key→shard mapping of its directory
// at creation time. Sharing them keeps the WAL and SST engines and the
// transaction log from drifting on the details that decide whether a data
// directory survives crashes.
// It is also the one place that maps files into memory (MapFile), which
// the SST engine reads its sealed run files through.
package fsutil

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
)

// lockName is the advisory-lock file every durable engine locks,
// whatever its type. One shared name is what makes the lock meaningful
// across engine types: with per-engine names, a wal engine and an sst
// engine could both "exclusively" own the same directory.
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
// so a crash never leaves a stale lock behind; the marker is written
// atomically and fsynced on first claim.
func ClaimDir(dir, engine string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lock %s: %w", dir, err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("data dir %s is in use by another engine: %w", dir, err)
	}
	if err := checkMarker(dir, engine); err != nil {
		_ = f.Close()
		return nil, err
	}
	return f, nil
}

func checkMarker(dir, engine string) error {
	path := filepath.Join(dir, markerName)
	b, err := os.ReadFile(path)
	if err == nil {
		if got := strings.TrimSpace(string(b)); got != engine {
			return fmt.Errorf("data dir %s was created by the %q engine, not %q — refusing to adopt it",
				dir, got, engine)
		}
		return nil
	}
	if !os.IsNotExist(err) {
		return fmt.Errorf("read engine marker: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(engine+"\n"), 0o644); err != nil {
		return fmt.Errorf("write engine marker: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("write engine marker: %w", err)
	}
	if err := SyncDir(dir); err != nil {
		return fmt.Errorf("sync dir: %w", err)
	}
	return nil
}

// SyncDir fsyncs a directory so file creations and renames inside it
// survive power loss, not just the file contents.
func SyncDir(dir string) error {
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

// LoadOrInitShards returns the stripe count the data directory was created
// with, persisting the resolved count (atomically, fsynced) on first open.
// The key→file mapping is fixed the moment the first record is written:
// reopening with a different stripe count would read too few files or
// route records into the wrong one, so the persisted count is
// authoritative and a differing option is overridden by the caller. A
// count outside (0, maxShards] or not a power of two fails loudly — a
// clamped or guessed value would silently desynchronize the mapping.
func LoadOrInitShards(dir, metaName string, resolved, maxShards int) (int, error) {
	path := filepath.Join(dir, metaName)
	b, err := os.ReadFile(path)
	if err == nil {
		var n int
		if _, serr := fmt.Sscanf(string(b), "shards=%d", &n); serr != nil ||
			n <= 0 || n > maxShards || n&(n-1) != 0 {
			return 0, fmt.Errorf("corrupt meta file %s: %q", path, b)
		}
		return n, nil
	}
	if !os.IsNotExist(err) {
		return 0, fmt.Errorf("read meta: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(fmt.Sprintf("shards=%d\n", resolved)), 0o644); err != nil {
		return 0, fmt.Errorf("write meta: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return 0, fmt.Errorf("write meta: %w", err)
	}
	if err := SyncDir(dir); err != nil {
		return 0, fmt.Errorf("sync dir: %w", err)
	}
	return resolved, nil
}
