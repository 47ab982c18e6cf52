package store

import "slices"

// keyIterBatch is how many keys a KeyIter cursor copies out of its stripe
// per read-lock acquisition: enough that a walk over a large store takes
// the lock once per few keys, few enough that a walk stopping after 64
// keys of a 64-stripe store copies a few hundred string headers, not the
// store's key set.
const keyIterBatch = 8

// KeyIter walks a Store's keys in ascending order. It merges one cursor
// per stripe through a min-heap; a cursor copies the next few keys of its
// stripe's ordered index under the stripe's read lock and holds no lock
// between batches. A walk that stops after n keys therefore costs one batch
// per stripe plus O(n log shards), whatever the store holds, and the
// caller may call back into the store between steps.
//
// Writes may race with a walk. Keys still come out strictly ascending, so
// none twice, and every key present for the whole walk is yielded: a
// cursor resumes after the last key the walk yielded, never after the end
// of a stale batch. A key inserted or deleted meanwhile may or may not be
// yielded, and a yielded key may be gone by the time the caller reads it.
type KeyIter struct {
	s       *Store
	buf     []string    // keyIterBatch slots per stripe
	heap    []keyCursor // the cursors holding keys, by head key
	key     string
	started bool
}

// keyCursor is one stripe's position: the unconsumed part of its batch,
// whose first key is the head.
type keyCursor struct {
	si   int
	keys []string
	more bool // the stripe held keys past the batch when it was copied
}

// KeysFrom returns a KeyIter over the keys >= start. Each Next steps to
// the following key; Key returns it.
func (s *Store) KeysFrom(start string) *KeyIter {
	it := &KeyIter{
		s:    s,
		buf:  make([]string, len(s.shards)*keyIterBatch),
		heap: make([]keyCursor, 0, len(s.shards)),
	}
	for si := range s.shards {
		c := keyCursor{si: si}
		if it.fill(&c, start, true) {
			it.heap = append(it.heap, c)
		}
	}
	for i := len(it.heap)/2 - 1; i >= 0; i-- {
		it.down(i)
	}
	return it
}

// Next advances to the next key and reports whether there is one.
func (it *KeyIter) Next() bool {
	if it.started && len(it.heap) > 0 {
		c := &it.heap[0]
		c.keys = c.keys[1:]
		if len(c.keys) == 0 && !(c.more && it.fill(c, it.key, false)) {
			last := len(it.heap) - 1
			it.heap[0] = it.heap[last]
			it.heap = it.heap[:last]
		}
		it.down(0)
	}
	it.started = true
	if len(it.heap) == 0 {
		return false
	}
	it.key = it.heap[0].keys[0]
	return true
}

// Key returns the key Next stepped to.
func (it *KeyIter) Key() string { return it.key }

// fill copies the next batch of c's stripe — the keys after bound, or from
// it when inclusive — into c's slots and reports whether there was any.
func (it *KeyIter) fill(c *keyCursor, bound string, inclusive bool) bool {
	sh := &it.s.shards[c.si]
	slots := it.buf[c.si*keyIterBatch : (c.si+1)*keyIterBatch]
	sh.mu.RLock()
	i, found := slices.BinarySearch(sh.keys, bound)
	if found && !inclusive {
		i++
	}
	n := copy(slots, sh.keys[i:])
	c.more = i+n < len(sh.keys)
	sh.mu.RUnlock()
	c.keys = slots[:n]
	return n > 0
}

// down restores the heap order below i. Heads never tie: a key lives in
// exactly one stripe.
func (it *KeyIter) down(i int) {
	h := it.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].keys[0] < h[c].keys[0] {
			c++
		}
		if h[i].keys[0] < h[c].keys[0] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
