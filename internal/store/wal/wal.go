// Package wal implements a durable storage engine: the in-memory
// lock-striped version store fronted by per-shard append-only log files.
//
// Every Put appends one record to the log of the shard that owns the key —
// the same FNV-1a striping the in-memory engine uses, so shard i's log
// holds exactly the versions resident in memory stripe i. Records are
// length-prefixed and CRC32-checksummed, and their payloads reuse the
// internal/wire encoder. Group commit batches all of a PutBatch's records
// for one shard into a single write syscall; the fsync policy decides when
// the OS buffer is forced to disk (per batch, on a timer, or only when the
// owner calls Sync).
//
// Durability rule: engine logs are a recovery accelerator; the txlog is the
// WAL. A partition server whose transaction log fronts the engine opens it
// with FsyncNever and calls Sync as a barrier before it lets the txlog (or a
// peer DC's replication cursor) forget a record; FsyncAlways and
// FsyncInterval are for an engine used on its own.
//
// On startup the engine replays every shard log into the in-memory shards.
// A torn final record — the footprint of a crash mid-append — is detected
// by its length prefix or checksum and truncated away, together with
// anything after it. GC feeds compaction: once garbage collection has
// dropped enough versions from a shard, that shard's log is rewritten from
// live memory state (to a temp file, fsynced, atomically renamed), bounding
// log growth to the live data set plus the compaction threshold.
package wal

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"wren/internal/hlc"
	"wren/internal/store"
	"wren/internal/store/fsutil"
	"wren/internal/store/logrec"
	"wren/internal/store/shardlog"
	"wren/internal/wire"
)

// Fsync policies: when an appended record is forced to stable storage.
const (
	// FsyncAlways runs Sync at the end of every Put/PutBatch: the call
	// returns durable, at one fsync per shard log the batch touched.
	FsyncAlways = "always"
	// FsyncInterval syncs dirty logs on a background timer (default 10ms):
	// a crash loses at most the last interval's writes. The default.
	FsyncInterval = "interval"
	// FsyncNever leaves flushing to the OS page cache until the owner
	// calls Sync (or Close): fastest, survives process crashes (the data is
	// in kernel buffers) but not power loss.
	FsyncNever = "never"
)

// ParseFsync canonicalizes a policy name ("" selects FsyncInterval).
func ParseFsync(s string) (string, error) {
	switch s {
	case "":
		return FsyncInterval, nil
	case FsyncAlways, FsyncInterval, FsyncNever:
		return s, nil
	default:
		return "", fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
	}
}

const (
	// DefaultFsyncInterval is the timer period of the FsyncInterval policy.
	DefaultFsyncInterval = 10 * time.Millisecond
	// DefaultCompactThreshold is the number of GC-dropped versions a shard
	// accumulates before its log is rewritten from live state.
	DefaultCompactThreshold = 4096
)

// Options configures a WAL engine.
type Options struct {
	// Dir is the directory holding the shard logs. Created if missing. One
	// engine must own it exclusively.
	Dir string
	// Shards is the stripe count (0 selects store.DefaultShards; rounded up
	// to a power of two). Logs are per stripe, so this also sets the group-
	// commit fan-in.
	Shards int
	// Fsync is one of FsyncAlways, FsyncInterval, FsyncNever ("" selects
	// FsyncInterval).
	Fsync string
	// FsyncInterval overrides the sync timer period for the interval policy
	// (0 selects DefaultFsyncInterval).
	FsyncInterval time.Duration
	// CompactThreshold overrides how many dropped versions trigger a shard
	// log rewrite (0 selects DefaultCompactThreshold; negative disables
	// compaction).
	CompactThreshold int
}

// walShard is the shared per-shard log state plus this engine's
// compaction accounting. Shard.Mu also covers the memory-stripe insert of
// an append, so compaction's snapshot-and-rewrite can never miss a
// version that is in the log but not yet in memory (or vice versa).
type walShard struct {
	shardlog.Shard
	dropped int // versions GC removed since the last compaction (under Mu)
}

// Engine is the durable WAL-backed storage engine.
type Engine struct {
	mem    *store.Store
	dir    string
	fsync  string
	compat int // compaction threshold (<0 disables)
	mask   uint32
	shards []*walShard

	lock *os.File // exclusive advisory lock on the data directory

	// syncMu serializes Sync: a caller whose dirty logs an earlier Sync
	// already took must not return before that Sync's fsyncs have.
	syncMu sync.Mutex

	mu      sync.Mutex // guards err, closed
	err     error      // first append/sync error, surfaced by Close
	closed  bool
	stop    chan struct{}
	wg      sync.WaitGroup
	metrics Metrics
}

// Metrics counts engine-level events for tests and monitoring.
type Metrics struct {
	mu          sync.Mutex
	compactions int
	recovered   int
	truncated   int
	syncs       atomic.Int64
}

// Syncs returns how many shard-log fsyncs Sync has issued (Put/PutBatch
// under FsyncAlways and the interval timer go through Sync too).
func (m *Metrics) Syncs() int64 { return m.syncs.Load() }

// Compactions returns how many shard-log rewrites have run.
func (m *Metrics) Compactions() int { m.mu.Lock(); defer m.mu.Unlock(); return m.compactions }

// Recovered returns how many records startup recovery replayed.
func (m *Metrics) Recovered() int { m.mu.Lock(); defer m.mu.Unlock(); return m.recovered }

// TruncatedShards returns how many shard logs had a torn tail cut off
// during recovery.
func (m *Metrics) TruncatedShards() int { m.mu.Lock(); defer m.mu.Unlock(); return m.truncated }

var _ store.Engine = (*Engine)(nil)

// Open creates or recovers a WAL engine in opts.Dir: existing shard logs
// are replayed into memory (truncating a torn tail), missing ones are
// created empty.
func Open(opts Options) (*Engine, error) {
	policy, err := ParseFsync(opts.Fsync)
	if err != nil {
		return nil, err
	}
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = DefaultFsyncInterval
	}
	compact := opts.CompactThreshold
	if compact == 0 {
		compact = DefaultCompactThreshold
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	lock, err := fsutil.ClaimDir(opts.Dir, "wal")
	if err != nil {
		return nil, err
	}

	mem := store.NewSharded(opts.Shards)
	// The key→log mapping is fixed the moment the first record is written:
	// reopening with a different stripe count would read too few logs or
	// compact records into the wrong one. The count persisted at creation
	// is therefore authoritative; a differing Shards option is overridden.
	// The bound matters: a count above store.MaxShards would be clamped
	// by the memory engine, desynchronizing the log↔stripe mapping
	// compaction relies on.
	n, err := fsutil.LoadOrInitShards(opts.Dir, "wal.meta", mem.NumShards(), store.MaxShards)
	if err != nil {
		_ = lock.Close()
		return nil, err
	}
	if n != mem.NumShards() {
		mem = store.NewSharded(n)
	}
	e := &Engine{
		mem:    mem,
		dir:    opts.Dir,
		fsync:  policy,
		compat: compact,
		mask:   uint32(n - 1),
		shards: make([]*walShard, n),
		lock:   lock,
		stop:   make(chan struct{}),
	}
	for si := 0; si < n; si++ {
		sh := &walShard{Shard: shardlog.Shard{Enc: wire.NewEncoder()}}
		if err := e.recoverShard(si, sh); err != nil {
			// Close whatever opened before the failure.
			for _, prev := range e.shards {
				if prev != nil && prev.F != nil {
					_ = prev.F.Close()
				}
			}
			_ = lock.Close()
			return nil, err
		}
		e.shards[si] = sh
	}
	// One directory sync covers every shard log created (or truncated)
	// above, so a fresh data dir survives power loss as a unit.
	if err := fsutil.SyncDir(opts.Dir); err != nil {
		_ = e.Close()
		return nil, fmt.Errorf("wal: sync dir: %w", err)
	}
	if policy == FsyncInterval {
		e.wg.Add(1)
		go e.fsyncLoop(opts.FsyncInterval)
	}
	return e, nil
}

// shardPath names shard si's log file.
func (e *Engine) shardPath(si int) string {
	return filepath.Join(e.dir, fmt.Sprintf("shard-%05d.log", si))
}

// recoverShard replays shard si's log into memory and leaves the file open
// for appending. The log is streamed through a bounded read buffer — never
// materialized whole — so startup heap is set by record size, not log
// size. A record whose length prefix or checksum does not hold — a torn
// tail from a crash mid-append — is truncated away along with everything
// after it.
func (e *Engine) recoverShard(si int, sh *walShard) error {
	path := e.shardPath(si)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open %s: %w", path, err)
	}
	size, err := f.Seek(0, 2)
	if err == nil {
		_, err = f.Seek(0, 0)
	}
	if err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: seek %s: %w", path, err)
	}

	var kvs []store.KV
	good := logrec.ScanReader(bufio.NewReaderSize(f, 1<<16), func(key string, v *store.Version) {
		kvs = append(kvs, store.KV{Key: key, Version: v})
	})
	e.mem.PutBatch(kvs)
	e.metrics.mu.Lock()
	e.metrics.recovered += len(kvs)
	if good < size {
		e.metrics.truncated++
	}
	e.metrics.mu.Unlock()

	if good < size {
		if err := f.Truncate(good); err != nil {
			_ = f.Close()
			return fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(good, 0); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: seek %s: %w", path, err)
	}
	sh.F = f
	sh.Size = good
	return nil
}

// recordErr remembers the first append/sync failure, printing it to
// stderr right away — an operator must learn that durability degraded
// when it happens, not at Close. The memory stripes stay authoritative
// for reads either way; Healthy surfaces the error to callers that want
// to stop acknowledging writes (or fail a benchmark) on degradation.
func (e *Engine) recordErr(err error) {
	if err == nil {
		return
	}
	e.mu.Lock()
	first := e.err == nil
	if first {
		e.err = err
	}
	e.mu.Unlock()
	if first {
		fmt.Fprintf(os.Stderr, "wal: durability degraded in %s: %v\n", e.dir, err)
	}
}

// onErr adapts recordErr to the shardlog callbacks, prefixing the engine
// name.
func (e *Engine) onErr(err error) { e.recordErr(fmt.Errorf("wal: %w", err)) }

// Put implements store.Engine.
func (e *Engine) Put(key string, v *store.Version) {
	sh := e.shards[store.Fingerprint(key)&e.mask]
	sh.Mu.Lock()
	sh.Enc.Reset()
	logrec.Append(sh.Enc, key, v)
	sh.AppendLocked(e.onErr)
	// The memory insert happens under the WAL shard lock so compaction's
	// snapshot-and-rewrite can never interleave between log and memory.
	e.mem.Put(key, v)
	sh.Mu.Unlock()
	if e.fsync == FsyncAlways {
		e.Sync()
	}
}

// PutBatch implements store.Engine: all records of one batch destined for
// the same shard are appended with a single write (group commit). Versions
// become readable from the memory stripes as each shard's append lands.
// PutBatch itself never waits for the disk except under FsyncAlways, where
// it ends with Sync.
func (e *Engine) PutBatch(kvs []store.KV) {
	switch len(kvs) {
	case 0:
		return
	case 1:
		e.Put(kvs[0].Key, kvs[0].Version)
		return
	}
	store.ForEachShardGroup(e.mask, kvs, func(id uint32, group []store.KV) {
		sh := e.shards[id]
		sh.Mu.Lock()
		sh.Enc.Reset()
		for _, kv := range group {
			logrec.Append(sh.Enc, kv.Key, kv.Version)
		}
		sh.AppendLocked(e.onErr)
		e.mem.PutBatch(group)
		sh.Mu.Unlock()
	})
	if e.fsync == FsyncAlways {
		e.Sync()
	}
}

// Sync implements store.Engine: every shard log with unsynced appends is
// forced to stable storage in one concurrent phase. Each handle is
// captured under its shard lock; one a concurrent compaction has closed
// since is skipped by shardlog — the rewrite that replaced it was fsynced
// before the swap. Failures are recorded for Healthy.
func (e *Engine) Sync() {
	e.syncMu.Lock()
	defer e.syncMu.Unlock()
	e.metrics.syncs.Add(int64(shardlog.SyncDirty(e.shards, e.onErr)))
}

// ReadVisible implements store.Engine.
func (e *Engine) ReadVisible(key string, visible store.VisibleFunc) *store.Version {
	return e.mem.ReadVisible(key, visible)
}

// ReadVisibleBatch implements store.Engine.
func (e *Engine) ReadVisibleBatch(keys []string, visible store.VisibleFunc) []*store.Version {
	return e.mem.ReadVisibleBatch(keys, visible)
}

// ReadVisibleBatchInto implements store.Engine: reads are always served by
// the memory stripes, so the caller-buffer fast path passes straight
// through.
func (e *Engine) ReadVisibleBatchInto(keys []string, visible store.VisibleFunc, out []*store.Version) []*store.Version {
	return e.mem.ReadVisibleBatchInto(keys, visible, out)
}

// Latest implements store.Engine.
func (e *Engine) Latest(key string) *store.Version { return e.mem.Latest(key) }

// GC implements store.Engine.
func (e *Engine) GC(oldest hlc.Timestamp) int { return e.GCStats(oldest).Removed }

// GCStats implements store.Engine: it prunes the memory stripes, then
// rewrites any shard log whose dropped-version count crossed the
// compaction threshold.
func (e *Engine) GCStats(oldest hlc.Timestamp) store.GCResult {
	res := e.mem.GCStats(oldest)
	if e.compat < 0 {
		return res
	}
	for si, n := range res.PerShard {
		if n == 0 {
			continue
		}
		sh := e.shards[si]
		sh.Mu.Lock()
		sh.dropped += n
		compact := sh.dropped >= e.compat
		sh.Mu.Unlock()
		if compact {
			e.compactShard(si)
		}
	}
	return res
}

// compactShard rewrites shard si's log from live memory state: encode the
// surviving versions into a temp file, fsync it, and atomically rename it
// over the old log. Appends to the shard are blocked for the duration.
func (e *Engine) compactShard(si int) {
	sh := e.shards[si]
	sh.Mu.Lock()
	defer sh.Mu.Unlock()

	snap := e.mem.ShardSnapshot(si)
	path := e.shardPath(si)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		e.recordErr(fmt.Errorf("wal: compact %s: %w", path, err))
		return
	}
	// Stream the rewrite through a throwaway encoder and a buffered
	// writer: sh.Enc lives as long as the engine, and Reset keeps buffer
	// capacity, so encoding a whole shard into it would pin a
	// snapshot-sized allocation per shard forever.
	w := bufio.NewWriterSize(f, 1<<16)
	enc := wire.NewEncoder()
	var written int64
	for _, kv := range snap {
		enc.Reset()
		logrec.Append(enc, kv.Key, kv.Version)
		if _, err = w.Write(enc.Bytes()); err != nil {
			break
		}
		written += int64(len(enc.Bytes()))
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		e.recordErr(fmt.Errorf("wal: compact %s: %w", path, err))
		_ = f.Close()
		_ = os.Remove(tmp)
		return
	}

	// f still refers to the inode that now lives at path (rename moved
	// it), positioned at its end — it becomes the append handle directly,
	// so there is no reopen step that could fail and leave appends going
	// to a dead file.
	_ = sh.F.Close()
	sh.F = f
	sh.Size = written
	sh.dropped = 0
	sh.Dirty = false
	sh.Failed = false // the rewrite from live memory state repairs a frozen log
	// Persist the rename itself: without the directory sync a power loss
	// could revert the name to the pre-compaction inode, losing every
	// post-compaction append.
	if derr := fsutil.SyncDir(e.dir); derr != nil {
		e.recordErr(fmt.Errorf("wal: compact %s: sync dir: %w", path, derr))
	}
	e.metrics.mu.Lock()
	e.metrics.compactions++
	e.metrics.mu.Unlock()
}

// Keys implements store.Engine.
func (e *Engine) Keys() int { return e.mem.Keys() }

// Versions implements store.Engine.
func (e *Engine) Versions() int { return e.mem.Versions() }

// VersionsOf implements store.Engine.
func (e *Engine) VersionsOf(key string) int { return e.mem.VersionsOf(key) }

// NumShards implements store.Engine.
func (e *Engine) NumShards() int { return e.mem.NumShards() }

// ForEachKey implements store.Engine.
func (e *Engine) ForEachKey(fn func(key string)) { e.mem.ForEachKey(fn) }

// Scan implements store.Engine: reads are always served by the memory
// stripes, so the ordered iteration passes straight through.
func (e *Engine) Scan(start, end string, visible store.VisibleFunc, fn func(key string, v *store.Version) bool) error {
	return e.mem.Scan(start, end, visible, fn)
}

// InjectFailure records err as a write-path failure, flipping Healthy.
// Test-only, like txlog.InjectFailure: it lets the lifecycle tests
// exercise a failed engine barrier without arranging a real I/O error.
func (e *Engine) InjectFailure(err error) { e.recordErr(err) }

// Healthy implements store.Engine: it returns the first append, sync or
// compaction failure the engine has recorded, or nil while the write path
// is fully intact. After a failure the engine keeps serving reads and
// writes from the memory stripes, so without this signal a frozen shard
// log is invisible until Close.
func (e *Engine) Healthy() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Metrics returns the engine's counters.
func (e *Engine) Metrics() *Metrics { return &e.metrics }

// Dir returns the engine's data directory.
func (e *Engine) Dir() string { return e.dir }

// fsyncLoop runs Sync on a timer (FsyncInterval policy). An append racing
// in re-sets Dirty, keeping the one-interval loss bound.
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

// Close implements store.Engine: it stops the sync loop, forces every log
// to stable storage (a clean shutdown is always fully durable, whatever
// the fsync policy), closes the files, and returns the first error any
// append, sync or compaction hit.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		err := e.err
		e.mu.Unlock()
		return err
	}
	e.closed = true
	e.mu.Unlock()

	close(e.stop)
	e.wg.Wait()
	for _, sh := range e.shards {
		sh.Mu.Lock()
		if err := sh.F.Sync(); err != nil {
			e.recordErr(fmt.Errorf("wal: close sync: %w", err))
		}
		if err := sh.F.Close(); err != nil {
			e.recordErr(fmt.Errorf("wal: close: %w", err))
		}
		sh.Mu.Unlock()
	}
	_ = e.lock.Close() // releases the directory lock
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}
