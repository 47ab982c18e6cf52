// Package shardlog is the per-shard append machinery shared by the
// durable storage engines (store/wal, store/sst): one log file per memory
// stripe, buffered record appends with rollback-or-freeze on failure, and
// the one concurrent sync phase behind an engine's Sync barrier (an
// append never syncs). Keeping it in one place means a
// durability fix lands in every engine at once instead of drifting
// between near-identical copies.
package shardlog

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"wren/internal/wire"
)

// Shard pairs one log file with its append state. Engines hold one Shard
// per memory stripe; Mu also covers the memory-stripe insert of an
// append, so a snapshot-and-rewrite (WAL compaction, SST memtable freeze)
// can never interleave between the log write and the insert.
type Shard struct {
	Mu     sync.Mutex
	F      *os.File
	Enc    *wire.Encoder // reusable append buffer, guarded by Mu
	Size   int64         // bytes of intact records in F (rollback point)
	Failed bool          // append path broken; log frozen until rewritten/rotated
	Dirty  bool          // has unsynced appends
}

// AppendLocked writes Enc's buffered records to the log file and marks
// the shard dirty. Caller holds Mu; failures are reported through onErr.
//
// A failed or short write must not leave a torn record mid-log: recovery
// stops at the first bad record, so appending past it would make every
// later record — even fsynced ones — unreachable after a restart. The
// failed append is rolled back by truncating to the last intact offset;
// if even that fails the log is frozen (Failed; memory stays
// authoritative) until the engine rewrites or rotates it.
func (s *Shard) AppendLocked(onErr func(error)) {
	if s.Enc.Len() == 0 || s.Failed {
		return
	}
	if _, err := s.F.Write(s.Enc.Bytes()); err != nil {
		onErr(fmt.Errorf("append: %w", err))
		if terr := s.F.Truncate(s.Size); terr == nil {
			if _, terr = s.F.Seek(s.Size, 0); terr == nil {
				return
			}
		}
		s.Failed = true
		onErr(fmt.Errorf("append rollback failed, freezing shard log: %w", err))
		return
	}
	s.Size += int64(len(s.Enc.Bytes()))
	s.Dirty = true
}

// TakeDirty returns the shard's current log handle and clears Dirty if
// the shard has unsynced appends, or nil. The handle is captured under the
// shard lock and synced outside it (SyncDirty), so appends are never
// stalled behind an fsync; an append racing in re-sets Dirty.
func (s *Shard) TakeDirty() *os.File {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	if !s.Dirty {
		return nil
	}
	s.Dirty = false
	return s.F
}

// SyncDirty forces every shard log with unsynced appends to stable storage
// in one SyncFiles phase and returns how many fsyncs that took.
func SyncDirty[S interface{ TakeDirty() *os.File }](shards []S, onErr func(error)) int {
	var dirty []*os.File
	for _, sh := range shards {
		if f := sh.TakeDirty(); f != nil {
			dirty = append(dirty, f)
		}
	}
	SyncFiles(dirty, onErr)
	return len(dirty)
}

// SyncFiles forces the given log handles to stable storage concurrently:
// one group-commit sync phase whose latency is the slowest single fsync,
// not the sum of one serialized fsync per stripe.
//
// Callers capture each handle under its shard lock (TakeDirty, or the
// SST freeze handing over the generation it rotates out). A captured
// handle that background work has closed since — a WAL compaction's
// rewrite, an SST flush whose run superseded the generation — is skipped
// as success: what replaced it was fsynced before the swap, so the
// records are stable through it.
func SyncFiles(files []*os.File, onErr func(error)) {
	if len(files) == 1 {
		syncFile(files[0], onErr)
		return
	}
	var wg sync.WaitGroup
	for _, f := range files {
		wg.Add(1)
		go func(f *os.File) {
			defer wg.Done()
			syncFile(f, onErr)
		}(f)
	}
	wg.Wait()
}

func syncFile(f *os.File, onErr func(error)) {
	if err := f.Sync(); err != nil && !errors.Is(err, os.ErrClosed) {
		onErr(fmt.Errorf("sync: %w", err))
	}
}
