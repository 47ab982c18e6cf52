// Package stripemap provides a lock-striped map keyed by uint64, used by
// the partition servers for per-request bookkeeping (open transaction
// contexts, in-flight slice reads). Striping the bookkeeping removes the
// server-wide mutex from the read path: a transactional read touches only
// the stripes its own TxID/ReqID hash to, so reads never serialize behind
// commits, replication applies or gossip — Wren's nonblocking-read property
// holds at the implementation level, not just the protocol level.
//
// Stripes use RWMutexes deliberately: internal/bench's
// TestReadHandlersTakeNoPlainMutex asserts (via the runtime mutex profile)
// that read handlers never contend a plain sync.Mutex, the footprint of
// server-wide serialization.
package stripemap

import "sync"

// DefaultStripes is the stripe count used when New is given n <= 0. 64
// stripes keep contention negligible at several dozen cores for roughly
// 4KiB fixed overhead.
const DefaultStripes = 64

// stripe pads to a multiple of a cache line so lock traffic on one stripe
// does not false-share with its neighbours.
type stripe[V any] struct {
	mu sync.RWMutex
	m  map[uint64]V
	_  [64 - 24 - 8]byte
}

// Map is a hash map striped over a power-of-two number of independently
// locked stripes. All methods are safe for concurrent use. The zero value
// is not usable; call New.
type Map[V any] struct {
	stripes []stripe[V]
	mask    uint64
}

// New returns an empty map with at least n stripes (n <= 0 selects
// DefaultStripes), rounded up to a power of two.
func New[V any](n int) *Map[V] {
	if n <= 0 {
		n = DefaultStripes
	}
	size := 1
	for size < n {
		size <<= 1
	}
	m := &Map[V]{stripes: make([]stripe[V], size), mask: uint64(size - 1)}
	for i := range m.stripes {
		m.stripes[i].m = make(map[uint64]V)
	}
	return m
}

// mix spreads sequential keys (request counters, transaction sequence
// numbers) across stripes; without it, monotonically assigned IDs would
// all land in a handful of stripes. SplitMix64 finalizer.
func mix(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

func (m *Map[V]) stripeOf(k uint64) *stripe[V] {
	return &m.stripes[mix(k)&m.mask]
}

// Store sets the value for key k.
func (m *Map[V]) Store(k uint64, v V) {
	s := m.stripeOf(k)
	s.mu.Lock()
	s.m[k] = v
	s.mu.Unlock()
}

// Load returns the value for key k.
func (m *Map[V]) Load(k uint64) (V, bool) {
	s := m.stripeOf(k)
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	return v, ok
}

// LoadAndDelete atomically removes and returns the value for key k. Only
// one of several concurrent callers observes ok == true, which makes it the
// claim operation for one-shot request state.
func (m *Map[V]) LoadAndDelete(k uint64) (V, bool) {
	s := m.stripeOf(k)
	s.mu.Lock()
	v, ok := s.m[k]
	if ok {
		delete(s.m, k)
	}
	s.mu.Unlock()
	return v, ok
}

// Delete removes key k.
func (m *Map[V]) Delete(k uint64) {
	s := m.stripeOf(k)
	s.mu.Lock()
	delete(s.m, k)
	s.mu.Unlock()
}

// Len returns the number of stored entries.
func (m *Map[V]) Len() int {
	n := 0
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Range calls fn for every entry until fn returns false. It holds one
// stripe read-lock at a time while fn runs; fn must not call back into the
// map. Entries stored or deleted concurrently may or may not be visited.
func (m *Map[V]) Range(fn func(k uint64, v V) bool) {
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.RLock()
		for k, v := range s.m {
			if !fn(k, v) {
				s.mu.RUnlock()
				return
			}
		}
		s.mu.RUnlock()
	}
}
