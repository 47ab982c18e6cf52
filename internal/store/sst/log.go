package sst

import (
	"fmt"
	"time"

	"wren/internal/store"
	"wren/internal/store/logrec"
	"wren/internal/store/shardlog"
	"wren/internal/store/wal"
)

// logShard is the shared per-shard log state (see shardlog.Shard). Mu
// also covers the memtable insert of an append, and the freeze step of a
// flush acquires EVERY shard lock while swapping in the new memtable and
// WAL generation — so any write either fully lands in the old
// generation+memtable or fully in the new one, never split. A shard whose
// append path failed stays frozen (memory authoritative) until the next
// flush rotates in a fresh generation file.
type logShard = shardlog.Shard

// onErr adapts recordErr to the shardlog callbacks, prefixing the engine
// name.
func (e *Engine) onErr(err error) { e.recordErr(fmt.Errorf("sst: %w", err)) }

// Put implements store.Engine.
func (e *Engine) Put(key string, v *store.Version) {
	si := store.Fingerprint(key) & e.mask
	sh := e.shards[si]
	sh.Mu.Lock()
	sh.Enc.Reset()
	logrec.Append(sh.Enc, key, v)
	sh.AppendLocked(e.onErr)
	// The memtable insert happens under the WAL shard lock, so a freeze
	// can never interleave between the log append and the insert.
	e.tabs.Load().active.Put(key, v)
	e.written[si] = append(e.written[si], key)
	sh.Mu.Unlock()
	if e.fsync == wal.FsyncAlways {
		e.Sync()
	}
	e.noteWrite(writeSize(key, v))
}

// PutBatch implements store.Engine: all records of one batch destined for
// the same shard are appended with a single write (group commit). Like the
// WAL engine it never waits for the disk except under fsync=always, where
// it ends with Sync.
func (e *Engine) PutBatch(kvs []store.KV) {
	switch len(kvs) {
	case 0:
		return
	case 1:
		e.Put(kvs[0].Key, kvs[0].Version)
		return
	}
	var bytes int64
	store.ForEachShardGroup(e.mask, kvs, func(id uint32, group []store.KV) {
		sh := e.shards[id]
		sh.Mu.Lock()
		sh.Enc.Reset()
		for _, kv := range group {
			logrec.Append(sh.Enc, kv.Key, kv.Version)
			bytes += writeSize(kv.Key, kv.Version)
			e.written[id] = append(e.written[id], kv.Key)
		}
		sh.AppendLocked(e.onErr)
		e.tabs.Load().active.PutBatch(group)
		sh.Mu.Unlock()
	})
	if e.fsync == wal.FsyncAlways {
		e.Sync()
	}
	e.noteWrite(bytes)
}

// Sync implements store.Engine: every active-generation shard log with
// unsynced appends is forced to stable storage in one concurrent phase.
// Appends a memtable freeze rotated out are not its concern — the flush
// syncs that generation before it releases syncMu (see flushLocked) — and
// a handle the flush closed since is skipped, its records being stable
// through the run that superseded it. Failures are recorded for Healthy.
func (e *Engine) Sync() {
	e.syncMu.Lock()
	defer e.syncMu.Unlock()
	e.metrics.syncs.Add(int64(shardlog.SyncDirty(e.shards, e.onErr)))
}

// drainWritten hands the caller (a GC pass) every stripe's list of keys
// written since the last pass, leaving the lists empty. One shard lock at
// a time: a key is appended under the lock its memtable insert happens
// under, so a drained key's version is already readable and a later one
// lands in the next pass's lists.
func (e *Engine) drainWritten() []string {
	var keys []string
	for si, sh := range e.shards {
		sh.Mu.Lock()
		keys = append(keys, e.written[si]...)
		e.written[si] = e.written[si][:0]
		sh.Mu.Unlock()
	}
	return keys
}

// noteWrite tracks the approximate memtable size and schedules a
// background flush once it crosses the threshold.
func (e *Engine) noteWrite(n int64) {
	if e.flushBytes < 0 {
		return
	}
	if e.memBytes.Add(n) < e.flushBytes {
		return
	}
	e.triggerFlush()
}

// triggerFlush schedules at most one background flush at a time.
func (e *Engine) triggerFlush() {
	if !e.flushing.CompareAndSwap(false, true) {
		return
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.flushing.Store(false)
		return
	}
	e.wg.Add(1)
	e.mu.Unlock()
	go func() {
		defer e.wg.Done()
		defer e.flushing.Store(false)
		_ = e.Flush()
	}()
}

// fsyncLoop runs Sync on a timer (interval policy). An append racing in
// re-sets Dirty, keeping the one-interval loss bound.
func (e *Engine) fsyncLoop(every time.Duration) {
	defer e.wg.Done()
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			e.Sync()
		case <-e.stop:
			return
		}
	}
}
