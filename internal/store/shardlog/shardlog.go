// Package shardlog is the per-shard append machinery of the WAL engine
// (store/wal), and belongs to it alone: one log file per memory stripe,
// buffered record appends through fsutil.Tail's rollback-or-freeze, and
// the one concurrent sync phase behind the engine's Sync barrier (an
// append never syncs). The SST engine keeps one log file per generation
// and the transaction log one file, so neither needs it; when the WAL
// engine goes, so does this package.
package shardlog

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"wren/internal/store/fsutil"
	"wren/internal/wire"
)

// Shard pairs one log file with its append state. The engine holds one
// Shard per memory stripe; Mu also covers the memory-stripe insert of an
// append, so a snapshot-and-rewrite (WAL compaction) can never interleave
// between the log write and the insert.
type Shard struct {
	Mu sync.Mutex
	fsutil.Tail
	Enc   *wire.Encoder // reusable append buffer, guarded by Mu
	Dirty bool          // has unsynced appends
}

// AppendLocked writes Enc's buffered records to the log file (see
// fsutil.Tail for the rollback-or-freeze rule) and marks the shard dirty.
// Caller holds Mu; failures are reported through onErr.
func (s *Shard) AppendLocked(onErr func(error)) {
	if s.Append(s.Enc.Bytes(), onErr) {
		s.Dirty = true
	}
}

// TakeDirty returns the shard's current log handle and clears Dirty if
// the shard has unsynced appends, or nil. The handle is captured under the
// shard lock and synced outside it (SyncDirty), so appends are never
// stalled behind an fsync; an append racing in re-sets Dirty.
func (s *Shard) TakeDirty() fsutil.File {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	if !s.Dirty {
		return nil
	}
	s.Dirty = false
	return s.F
}

// SyncDirty forces every shard log with unsynced appends to stable storage
// in one syncFiles phase and returns how many fsyncs that took.
func SyncDirty[S interface{ TakeDirty() fsutil.File }](shards []S, onErr func(error)) int {
	var dirty []fsutil.File
	for _, sh := range shards {
		if f := sh.TakeDirty(); f != nil {
			dirty = append(dirty, f)
		}
	}
	syncFiles(dirty, onErr)
	return len(dirty)
}

// syncFiles forces the given log handles to stable storage concurrently:
// one group-commit sync phase whose latency is the slowest single fsync,
// not the sum of one serialized fsync per stripe.
//
// Callers capture each handle under its shard lock (TakeDirty). A
// captured handle that a compaction's rewrite has closed since is skipped
// as success: the rewrite was fsynced before the swap, so the records are
// stable through it.
func syncFiles(files []fsutil.File, onErr func(error)) {
	if len(files) == 1 {
		syncFile(files[0], onErr)
		return
	}
	var wg sync.WaitGroup
	for _, f := range files {
		wg.Add(1)
		go func(f fsutil.File) {
			defer wg.Done()
			syncFile(f, onErr)
		}(f)
	}
	wg.Wait()
}

func syncFile(f fsutil.File, onErr func(error)) {
	if err := f.Sync(); err != nil && !errors.Is(err, os.ErrClosed) {
		onErr(fmt.Errorf("sync: %w", err))
	}
}
