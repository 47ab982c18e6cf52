package store

import "wren/internal/hlc"

// Engine is the pluggable storage abstraction every partition server writes
// through. The protocol layers (core, cure) program against this interface
// only, so persistence backends — the in-memory lock-striped map and the
// memtable+sorted-run engine in store/sst — slot in without touching
// protocol code.
//
// All methods must be safe for concurrent use. Version pointers handed to
// Put/PutBatch are owned by the engine afterwards; callers must not mutate
// them. Versions returned by reads are shared and must be treated as
// immutable.
type Engine interface {
	// Put inserts a new version into the chain of key, keeping the chain
	// in last-writer-wins order.
	Put(key string, v *Version)
	// PutBatch inserts many versions with at most one lock acquisition per
	// touched shard. This is the write hot path.
	PutBatch(kvs []KV)
	// ReadVisible returns the freshest version of key satisfying visible,
	// or nil.
	ReadVisible(key string, visible VisibleFunc) *Version
	// ReadVisibleBatch resolves many keys under one snapshot predicate; the
	// result is aligned with keys, nil where nothing is visible.
	ReadVisibleBatch(keys []string, visible VisibleFunc) []*Version
	// ReadVisibleBatchInto is ReadVisibleBatch with a caller-supplied result
	// buffer: out is truncated/extended to len(keys) reusing its capacity
	// and returned. With a large-enough buffer the call performs no heap
	// allocation — this is the read hot path for pooled slice reads.
	ReadVisibleBatchInto(keys []string, visible VisibleFunc, out []*Version) []*Version
	// Latest returns the newest version of key regardless of visibility.
	Latest(key string) *Version
	// GC prunes version chains against the oldest snapshot still visible to
	// a running transaction and returns the number of versions removed.
	GC(oldest hlc.Timestamp) int
	// GCStats is GC with full per-shard accounting.
	GCStats(oldest hlc.Timestamp) GCResult
	// Keys returns the number of keys with at least one version.
	Keys() int
	// Versions returns the total number of stored versions.
	Versions() int
	// VersionsOf returns the number of versions currently stored for key.
	VersionsOf(key string) int
	// NumShards returns the number of lock stripes (a power of two).
	NumShards() int
	// ForEachKey calls fn for every key; fn runs without shard locks held.
	ForEachKey(fn func(key string))
	// Scan streams the keys in [start, end) in ascending key order,
	// invoking fn with the freshest version of each key that satisfies
	// visible. Keys whose freshest visible version is a tombstone are
	// elided — like ReadVisible, a visible deletion reads as absence. An
	// empty end means "to the last key". fn returning false stops the scan
	// early. fn runs without shard locks held; writes that race with a
	// scan may or may not be observed, but never corrupt the iteration.
	// Version pointers handed to fn are shared, stable and must be treated
	// as immutable — engines that stream blocks from disk materialize the
	// winning version before invoking fn, so retaining it is safe.
	Scan(start, end string, visible VisibleFunc, fn func(key string, v *Version) bool) error
	// Sync forces every write that returned before the call to stable
	// storage (a no-op for the memory engine). It is the only way a write
	// becomes stable before Close: engines never sync on their own. A
	// server runs it as the barrier before it lets its transaction log —
	// the WAL proper — forget the records behind those writes; a failure
	// is recorded for Healthy.
	Sync()
	// Healthy reports the first write-path failure the engine has hit, or
	// nil while fully healthy. Durable engines keep serving from memory
	// after a log or flush failure, so without this signal a silently
	// degraded engine is indistinguishable from a healthy one until Close;
	// servers and benchmarks poll Healthy to detect it while running.
	Healthy() error
	// Close releases engine resources (files, background syncers). The
	// engine must not be used afterwards. Close is idempotent.
	Close() error
}

// MemoryEngine is the purely in-memory engine: the lock-striped version
// store. It is the default backend and the reference implementation of the
// Engine contract.
type MemoryEngine = Store

// NewMemoryEngine returns an empty in-memory engine with at least n shards
// (0 selects DefaultShards).
func NewMemoryEngine(n int) *MemoryEngine { return NewSharded(n) }

var _ Engine = (*Store)(nil)
