// Package store implements the multi-versioned key-value storage engine
// used by each partition server (paper §II-A): every update creates a new
// version carrying causality metadata; old versions are garbage-collected
// against the oldest snapshot still visible to a running transaction.
//
// Conflicting writes are ordered by the last-writer-wins rule on the update
// timestamp, with ties settled by the originating DC and transaction id
// (paper §II-C).
//
// The engine is lock-striped: keys are spread over a power-of-two number of
// shards by an FNV-1a fingerprint, each shard guarded by its own RWMutex.
// Hot-path batch operations (PutBatch, ReadVisibleBatch) take one lock
// acquisition per touched shard instead of one per version, and GC walks
// one shard at a time so it never stops the world.
package store

import (
	"slices"
	"sync"

	"wren/internal/hlc"
)

// DefaultShards is the shard count used by New. 64 shards keep lock
// contention negligible up to several dozen cores while costing ~4KiB of
// fixed overhead per store.
const DefaultShards = 64

// MaxShards bounds configurable shard counts; beyond this the per-shard
// fixed cost outweighs any conceivable contention win.
const MaxShards = 1 << 16

// Version is one version of a key. UT and RDT are the two BDT scalars; DV
// is only populated by the Cure/H-Cure baselines (one entry per DC).
//
// A Version with a nil Value is a tombstone: readers receive it like any
// other version (callers treat nil Value as absence), and GC drops a chain
// entirely once a tombstone is its only surviving version, so deleted keys
// do not stay resident forever.
type Version struct {
	Value []byte
	UT    hlc.Timestamp // update (commit) timestamp — local dependency summary
	RDT   hlc.Timestamp // remote dependency time — remote dependency summary
	TxID  uint64
	SrcDC uint8
	DV    []hlc.Timestamp // Cure only
}

// Less orders versions by the last-writer-wins rule: update timestamp,
// then source DC, then transaction id.
func (v *Version) Less(o *Version) bool {
	if v.UT != o.UT {
		return v.UT < o.UT
	}
	if v.SrcDC != o.SrcDC {
		return v.SrcDC < o.SrcDC
	}
	return v.TxID < o.TxID
}

// VisibleFunc decides whether a version belongs to a snapshot.
type VisibleFunc func(*Version) bool

// KV pairs a key with a version for batched writes.
type KV struct {
	Key     string
	Version *Version
}

// GCResult reports what one garbage-collection pass removed.
type GCResult struct {
	// Removed is the total number of versions removed.
	Removed int
	// DroppedKeys is the number of keys whose chains were deleted entirely
	// (tombstoned keys whose deletion became stable).
	DroppedKeys int
	// PerShard holds the number of versions removed in each shard, so
	// callers aggregating GC metrics incrementally stay accurate.
	PerShard []int
}

// shard is one stripe of the store. The padding rounds the struct up to 64
// bytes (RWMutex 24 + map header 8 + slice header 24 + pad 8) so that in
// the shards array lock traffic on one stripe does not false-share a cache
// line with its neighbours.
//
// keys is the stripe's ordered key index: exactly the keys of chains,
// ascending. It changes only when a chain is created or deleted, so
// writing another version of a resident key never touches it; KeysFrom
// reads it to walk the store in key order without sorting anything.
type shard struct {
	mu     sync.RWMutex
	chains map[string][]*Version // sorted ascending by Less (newest last)
	keys   []string
	_      [64 - 24 - 8 - 24]byte
}

// putLocked inserts v into key's chain, filing the key in the ordered
// index when the chain is new. Caller holds mu for writing.
func (sh *shard) putLocked(key string, v *Version) {
	chain, ok := sh.chains[key]
	if !ok {
		i, _ := slices.BinarySearch(sh.keys, key)
		sh.keys = slices.Insert(sh.keys, i, key)
	}
	sh.chains[key] = insertLocked(chain, v)
}

// deleteLocked removes key's chain and its index entry. Caller holds mu
// for writing.
func (sh *shard) deleteLocked(key string) {
	delete(sh.chains, key)
	if i, ok := slices.BinarySearch(sh.keys, key); ok {
		sh.keys = slices.Delete(sh.keys, i, i+1)
	}
}

// Store holds the version chains of one partition, striped over a
// power-of-two number of shards. It is safe for concurrent use; operations
// on keys in different shards do not contend.
type Store struct {
	shards []shard
	mask   uint32
}

// New returns an empty store with DefaultShards shards.
func New() *Store { return NewSharded(DefaultShards) }

// ResolveShards returns the shard count NewSharded(n) would actually use:
// n <= 0 selects DefaultShards, values above MaxShards are capped, and the
// result is rounded up to the next power of two for mask-based indexing.
// The sst engine uses it to resolve a configured count without building a
// throwaway store.
func ResolveShards(n int) int {
	if n <= 0 {
		n = DefaultShards
	}
	if n > MaxShards {
		n = MaxShards
	}
	size := 1
	for size < n {
		size <<= 1
	}
	return size
}

// NewSharded returns an empty store with at least n shards, resolved by
// ResolveShards.
func NewSharded(n int) *Store {
	size := ResolveShards(n)
	s := &Store{shards: make([]shard, size), mask: uint32(size - 1)}
	for i := range s.shards {
		s.shards[i].chains = make(map[string][]*Version)
	}
	return s
}

// NumShards returns the number of shards (a power of two).
func (s *Store) NumShards() int { return len(s.shards) }

// Fingerprint returns the FNV-1a hash of key — the fingerprint the store
// stripes keys by. Exported so backends that keep per-shard side state
// (the sst engine's stripes and GC counts) can use the exact same
// key→shard mapping as the in-memory stripes they mirror.
func Fingerprint(key string) uint32 { return fnv1a(key) }

// fnv1a fingerprints a key without allocating (hash/fnv would force the
// string through a []byte conversion and an interface call per byte chunk).
func fnv1a(key string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return h
}

func (s *Store) shardOf(key string) *shard {
	return &s.shards[fnv1a(key)&s.mask]
}

// insertLocked splices v into chain keeping last-writer-wins order. Inserts
// are typically near the tail, so the scan from the end is effectively O(1).
func insertLocked(chain []*Version, v *Version) []*Version {
	i := len(chain)
	for i > 0 && v.Less(chain[i-1]) {
		i--
	}
	chain = append(chain, nil)
	copy(chain[i+1:], chain[i:])
	chain[i] = v
	return chain
}

// Put inserts a new version into the chain of key, keeping the chain
// sorted in last-writer-wins order.
func (s *Store) Put(key string, v *Version) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	sh.putLocked(key, v)
	sh.mu.Unlock()
}

// PutBatch inserts many versions, grouping keys by shard so each touched
// shard's lock is acquired exactly once. This is the write hot path for
// commit application and replicated-update batches.
func (s *Store) PutBatch(kvs []KV) {
	switch len(kvs) {
	case 0:
		return
	case 1:
		s.Put(kvs[0].Key, kvs[0].Version)
		return
	}
	forEachShardGroup(s.mask, kvs, func(id uint32, group []KV) {
		sh := &s.shards[id]
		sh.mu.Lock()
		for _, kv := range group {
			sh.putLocked(kv.Key, kv.Version)
		}
		sh.mu.Unlock()
	})
}

// forEachShardGroup partitions kvs by key fingerprint under the given
// power-of-two mask and invokes fn once per touched shard with that
// shard's members, in first-appearance order — the exact grouping
// PutBatch uses internally. The group slice is reused across calls; fn
// must not retain it.
func forEachShardGroup(mask uint32, kvs []KV, fn func(shard uint32, group []KV)) {
	ids := make([]uint32, len(kvs))
	for i := range kvs {
		ids[i] = fnv1a(kvs[i].Key) & mask
	}
	done := make([]bool, len(kvs))
	group := make([]KV, 0, len(kvs))
	for i := range kvs {
		if done[i] {
			continue
		}
		group = group[:0]
		for j := i; j < len(kvs); j++ {
			if !done[j] && ids[j] == ids[i] {
				group = append(group, kvs[j])
				done[j] = true
			}
		}
		fn(ids[i], group)
	}
}

// ReadVisible returns the freshest version of key that satisfies visible
// (Alg. 3 lines 6–10), or nil if no version is visible.
func (s *Store) ReadVisible(key string, visible VisibleFunc) *Version {
	sh := s.shardOf(key)
	sh.mu.RLock()
	v := ReadVisibleChain(sh.chains[key], visible)
	sh.mu.RUnlock()
	return v
}

// ReadVisibleChain returns the freshest version in chain (sorted
// ascending in last-writer-wins order) satisfying visible, or nil.
// Exported so tiered engines scan their immutable run chains with the
// exact same visibility rule the memtable uses.
func ReadVisibleChain(chain []*Version, visible VisibleFunc) *Version {
	for i := len(chain) - 1; i >= 0; i-- {
		if visible(chain[i]) {
			return chain[i]
		}
	}
	return nil
}

// ReadVisibleBatch resolves many keys under one snapshot predicate, taking
// each touched shard's read lock exactly once. The result is aligned with
// keys; entries are nil where no version is visible.
func (s *Store) ReadVisibleBatch(keys []string, visible VisibleFunc) []*Version {
	return s.ReadVisibleBatchInto(keys, visible, nil)
}

// batchStackKeys bounds the stack-allocated scratch of a batch read; a
// slice read rarely touches more keys than this (the paper's transactions
// read ≤ 20), and larger batches just fall back to heap scratch.
const batchStackKeys = 32

// ReadVisibleBatchInto is ReadVisibleBatch with a caller-supplied result
// buffer, reused across reads so the hot path performs no heap allocation:
// grouping scratch lives on the stack for batches of up to batchStackKeys
// keys. This is the read hot path for transactional slice requests.
func (s *Store) ReadVisibleBatchInto(keys []string, visible VisibleFunc, out []*Version) []*Version {
	if cap(out) >= len(keys) {
		out = out[:len(keys)]
	} else {
		out = make([]*Version, len(keys))
	}
	switch len(keys) {
	case 0:
		return out
	case 1:
		out[0] = s.ReadVisible(keys[0], visible)
		return out
	}
	var (
		idsBuf  [batchStackKeys]uint32
		doneBuf [batchStackKeys]bool
		ids     []uint32
		done    []bool
	)
	if len(keys) <= batchStackKeys {
		// Both arrays are freshly declared per call, so the language has
		// already zeroed them.
		ids, done = idsBuf[:len(keys)], doneBuf[:len(keys)]
	} else {
		ids, done = make([]uint32, len(keys)), make([]bool, len(keys))
	}
	for i, k := range keys {
		ids[i] = fnv1a(k) & s.mask
	}
	for i := range keys {
		if done[i] {
			continue
		}
		sh := &s.shards[ids[i]]
		sh.mu.RLock()
		for j := i; j < len(keys); j++ {
			if !done[j] && ids[j] == ids[i] {
				out[j] = ReadVisibleChain(sh.chains[keys[j]], visible)
				done[j] = true
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

// Latest returns the newest version of key under last-writer-wins order
// regardless of visibility, or nil if the key has never been written. Used
// by convergence checks.
func (s *Store) Latest(key string) *Version {
	sh := s.shardOf(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	chain := sh.chains[key]
	if len(chain) == 0 {
		return nil
	}
	return chain[len(chain)-1]
}

// GC prunes version chains against the oldest snapshot visible to any
// running transaction (paper §IV-B) and returns the number of versions
// removed. See GCStats for the full accounting.
func (s *Store) GC(oldest hlc.Timestamp) int {
	return s.GCStats(oldest).Removed
}

// GCStats prunes version chains against the oldest snapshot visible to any
// running transaction (paper §IV-B): for every key it keeps all versions
// newer than oldest plus the newest version with UT ≤ oldest (the version
// a transaction reading at that snapshot would return). A chain whose only
// surviving version is a tombstone with UT ≤ oldest is dropped entirely, so
// deleted keys do not stay resident forever.
//
// The pass is incremental: it holds at most one shard lock at a time, so
// reads and writes on other shards proceed concurrently with collection.
func (s *Store) GCStats(oldest hlc.Timestamp) GCResult {
	res := GCResult{PerShard: make([]int, len(s.shards))}
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.Lock()
		dropped := false
		for key, chain := range sh.chains {
			// Find the newest version with UT <= oldest.
			keepFrom := -1
			for i := len(chain) - 1; i >= 0; i-- {
				if chain[i].UT <= oldest {
					keepFrom = i
					break
				}
			}
			if keepFrom >= 0 && keepFrom == len(chain)-1 && chain[keepFrom].Value == nil {
				// The stable snapshot base is a tombstone and nothing newer
				// exists: every reader would see "not found" anyway.
				res.PerShard[si] += len(chain)
				res.DroppedKeys++
				delete(sh.chains, key)
				dropped = true
				continue
			}
			if keepFrom <= 0 {
				continue // nothing older than the base to prune
			}
			res.PerShard[si] += keepFrom
			newChain := make([]*Version, len(chain)-keepFrom)
			copy(newChain, chain[keepFrom:])
			sh.chains[key] = newChain
		}
		if dropped {
			// One pass over the index per stripe, not a memmove per drop.
			sh.keys = slices.DeleteFunc(sh.keys, func(k string) bool {
				_, ok := sh.chains[k]
				return !ok
			})
		}
		res.Removed += res.PerShard[si]
		sh.mu.Unlock()
	}
	return res
}

// Keys returns the number of keys with at least one version.
func (s *Store) Keys() int {
	n := 0
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.RLock()
		n += len(sh.chains)
		sh.mu.RUnlock()
	}
	return n
}

// Versions returns the total number of stored versions across all keys.
func (s *Store) Versions() int {
	n := 0
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.RLock()
		for _, chain := range sh.chains {
			n += len(chain)
		}
		sh.mu.RUnlock()
	}
	return n
}

// VersionsOf returns the number of versions currently stored for key.
func (s *Store) VersionsOf(key string) int {
	sh := s.shardOf(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.chains[key])
}

// ChainInto appends every stored version of key to buf, oldest first in
// last-writer-wins order, and returns the extended buffer. The Version
// pointers are shared with the store and must be treated as read-only.
// Tiered engines use it to snapshot one key's chain (for run flushes and
// cross-source GC decisions) without holding the shard lock afterwards.
func (s *Store) ChainInto(key string, buf []*Version) []*Version {
	sh := s.shardOf(key)
	sh.mu.RLock()
	buf = append(buf, sh.chains[key]...)
	sh.mu.RUnlock()
	return buf
}

// PruneChain removes from key's chain every version strictly older than
// base in last-writer-wins order; with dropWhole set, base itself is
// removed too (the caller decided the whole chain up to and including
// base is dead — a stable tombstone with nothing newer). It returns the
// number of versions removed. base need not be resident in this store:
// engines that tier one key's chain across several stores (an active
// memtable plus immutable sorted runs) compute the GC base globally and
// use PruneChain to apply the decision to the slice of the chain this
// store holds.
//
// dropWhole deliberately does NOT clear the chain unconditionally: the
// caller's decision was made from a snapshot, and a writer may have
// inserted a version newer than base since. Bounding the drop by base
// keeps such a racing write alive — deleting it would silently lose an
// acknowledged committed update.
func (s *Store) PruneChain(key string, base *Version, dropWhole bool) int {
	sh := s.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	chain := sh.chains[key]
	if len(chain) == 0 {
		return 0
	}
	cut := ChainCut(chain, base, dropWhole)
	switch {
	case cut == 0:
		return 0
	case cut == len(chain):
		sh.deleteLocked(key)
		return cut
	}
	newChain := make([]*Version, len(chain)-cut)
	copy(newChain, chain[cut:])
	sh.chains[key] = newChain
	return cut
}

// ChainCut returns how many leading versions of chain (sorted ascending
// in last-writer-wins order) a GC decision removes: everything strictly
// older than base, plus base itself when dropWhole is set — but never a
// version newer than base, so a write that raced in after the decision
// survives. The single definition is shared by PruneChain and by tiered
// engines pruning immutable run chains, which must apply the exact same
// rule or their tiers' GC decisions desynchronize.
func ChainCut(chain []*Version, base *Version, dropWhole bool) int {
	cut := 0
	for cut < len(chain) && chain[cut].Less(base) {
		cut++
	}
	if dropWhole {
		for cut < len(chain) && !base.Less(chain[cut]) {
			cut++
		}
	}
	return cut
}

// Healthy implements Engine. The in-memory engine has no write path that
// can fail, so it is always healthy.
func (s *Store) Healthy() error { return nil }

// Sync implements Engine: nothing in memory can be made stable.
func (s *Store) Sync() {}

// Close implements Engine. The in-memory engine holds no external
// resources, so Close is a no-op.
func (s *Store) Close() error { return nil }

// Scan implements Engine: keys in [start, end) in ascending order, each
// resolved to its freshest visible non-tombstone version. The keys come
// off KeysFrom, so a scan that stops early pays for the keys it walked,
// not for the store's size; fn runs without any shard lock held and may
// call back into the store, and a write racing with the scan may or may
// not be observed.
func (s *Store) Scan(start, end string, visible VisibleFunc, fn func(key string, v *Version) bool) error {
	for it := s.KeysFrom(start); it.Next(); {
		k := it.Key()
		if end != "" && k >= end {
			break
		}
		v := s.ReadVisible(k, visible)
		if v == nil || v.Value == nil {
			continue
		}
		if !fn(k, v) {
			return nil
		}
	}
	return nil
}

// ForEachKey calls fn for every key in the store. Iteration order is
// unspecified; keys are snapshotted one shard at a time, so fn runs without
// any shard lock held and may call back into the store.
func (s *Store) ForEachKey(fn func(key string)) {
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.RLock()
		keys := make([]string, 0, len(sh.chains))
		for k := range sh.chains {
			keys = append(keys, k)
		}
		sh.mu.RUnlock()
		for _, k := range keys {
			fn(k)
		}
	}
}
