package sst

import (
	"fmt"
	"os"
	"slices"
	"sync"

	"wren/internal/store"
	"wren/internal/store/fsutil"
	"wren/internal/store/logrec"
	"wren/internal/wire"
)

// stripe is one memtable stripe's write lock and record buffer. mu covers
// a write's log append, its memtable insert and its write-list entry, and
// the freeze of a flush takes every stripe's mu, in ascending order, to
// swap in the next memtable and log generation: a write holding any of
// them lands wholly in one generation.
type stripe struct {
	mu  sync.Mutex
	enc *wire.Encoder
}

// genLog is one generation's log file, shared by every stripe. mu orders
// the appends into it and the barrier's hand-off of dirty; a write holds
// its stripe locks around it, so mu is the innermost lock. A failed append
// rolls back or freezes the log (fsutil.Tail); the next flush rotates a
// fresh generation in.
type genLog struct {
	mu sync.Mutex
	fsutil.Tail
	dirty bool // has unsynced appends
}

// onErr adapts recordErr to the append callbacks, prefixing the engine
// name.
func (e *Engine) onErr(err error) { e.recordErr(fmt.Errorf("sst: %w", err)) }

// appendLocked writes one write's encoded records to the active generation
// with one write. The caller holds the lock of every stripe the records
// belong to, which pins the generation: the freeze needs all of them.
func (e *Engine) appendLocked(b []byte) {
	l := e.log
	l.mu.Lock()
	if l.Append(b, e.onErr) {
		l.dirty = true
	}
	l.mu.Unlock()
	e.metrics.logWrites.Add(1)
}

// takeDirty returns the log's file and clears dirty if it has unsynced
// appends, or nil. The file is synced outside mu, so appends never stall
// behind the sync; an append racing in sets dirty again.
func (l *genLog) takeDirty() *os.File {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.dirty {
		return nil
	}
	l.dirty = false
	return l.F
}

// syncLog forces f to stable storage with one fdatasync and counts it; a
// nil f is a clean log and costs nothing.
func (e *Engine) syncLog(f *os.File) {
	if f == nil {
		return
	}
	e.metrics.syncs.Add(1)
	if err := fsutil.Datasync(f); err != nil {
		e.onErr(fmt.Errorf("sync: %w", err))
	}
}

// Put implements store.Engine.
func (e *Engine) Put(key string, v *store.Version) {
	si := store.Fingerprint(key) & e.mask
	st := &e.stripes[si]
	st.mu.Lock()
	st.enc.Reset()
	logrec.Append(st.enc, key, v)
	e.appendLocked(st.enc.Bytes())
	// The memtable insert happens under the stripe lock, so a freeze can
	// never interleave between the log append and the insert.
	e.tabs.Load().active.Put(key, v)
	e.written[si] = append(e.written[si], key)
	st.mu.Unlock()
	e.noteWrite(writeSize(key, v))
}

// PutBatch implements store.Engine: the batch locks every stripe it
// touches, in ascending order like the freeze, and its records reach the
// log in one write. Like Put it never waits for the disk; the owner's Sync
// does.
func (e *Engine) PutBatch(kvs []store.KV) {
	switch len(kvs) {
	case 0:
		return
	case 1:
		e.Put(kvs[0].Key, kvs[0].Version)
		return
	}
	ids := make([]uint32, len(kvs))
	for i, kv := range kvs {
		ids[i] = store.Fingerprint(kv.Key) & e.mask
	}
	locked := slices.Compact(slices.Sorted(slices.Values(ids)))
	for _, si := range locked {
		e.stripes[si].mu.Lock()
	}
	enc := e.stripes[locked[0]].enc
	enc.Reset()
	var bytes int64
	for i, kv := range kvs {
		logrec.Append(enc, kv.Key, kv.Version)
		bytes += writeSize(kv.Key, kv.Version)
		e.written[ids[i]] = append(e.written[ids[i]], kv.Key)
	}
	e.appendLocked(enc.Bytes())
	e.tabs.Load().active.PutBatch(kvs)
	for _, si := range locked {
		e.stripes[si].mu.Unlock()
	}
	e.noteWrite(bytes)
}

// Sync implements store.Engine: the active generation's log, if it holds
// unsynced appends, is forced to stable storage with one fdatasync.
// Appends a freeze rotated out are not its concern — the flush syncs that
// generation before it releases syncMu (see flushLocked). Failures are
// recorded for Healthy.
func (e *Engine) Sync() {
	e.syncMu.Lock()
	defer e.syncMu.Unlock()
	e.syncLog(e.log.takeDirty())
}

// drainWritten hands the caller (a GC pass) every stripe's list of keys
// written since the last pass, leaving the lists empty. One stripe lock at
// a time: a key is appended under the lock its memtable insert happens
// under, so a drained key's version is already readable and a later one
// lands in the next pass's lists.
func (e *Engine) drainWritten() []string {
	var keys []string
	for si := range e.stripes {
		st := &e.stripes[si]
		st.mu.Lock()
		keys = append(keys, e.written[si]...)
		e.written[si] = e.written[si][:0]
		st.mu.Unlock()
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
