package sst

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"

	"wren/internal/hlc"
	"wren/internal/store"
	"wren/internal/store/logrec"
	"wren/internal/wire"
)

// best returns the later of two versions under last-writer-wins order.
func best(a, b *store.Version) *store.Version {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.Less(b) {
		return b
	}
	return a
}

// alwaysVisible is the visibility predicate of Latest: every version
// qualifies.
var alwaysVisible store.VisibleFunc = func(*store.Version) bool { return true }

// mergeDisk folds the frozen memtable and every immutable run into cur,
// the best version the active memtable produced for key. A probe fails
// only when its run was retired mid-read (compaction released the file
// after publishing the replacement tables), so the retry reloads the
// tables — which no longer list that run — and terminates.
func (e *Engine) mergeDisk(tabs *tables, key string, visible store.VisibleFunc, cur *store.Version, sc *probeScratch) *store.Version {
	for {
		v := cur
		if tabs.frozen != nil {
			v = best(v, tabs.frozen.ReadVisible(key, visible))
		}
		ok := true
		for _, r := range tabs.runs {
			if v, ok = e.probeRun(r, key, visible, v, sc); !ok {
				break
			}
		}
		if ok {
			return v
		}
		tabs = e.tabs.Load()
	}
}

// mergeBatch folds the frozen memtable and every run into out, the active
// memtable's answers for keys. The run versions that win are materialized
// together when the call ends (probeScratch.publish): one slab of versions
// and one arena of values for the whole call, fresh each time because
// callers keep what they are given.
func (e *Engine) mergeBatch(tabs *tables, keys []string, visible store.VisibleFunc, out []*store.Version) {
	if tabs.frozen == nil && len(tabs.runs) == 0 {
		return
	}
	sc := probePool.Get().(*probeScratch)
	for j, k := range keys {
		if out[j] = e.mergeDisk(tabs, k, visible, out[j], sc); out[j] == &sc.win {
			sc.wins = append(sc.wins, sc.win)
			sc.slots = append(sc.slots, j)
		}
	}
	sc.publish(out)
	probePool.Put(sc)
}

// ReadVisible implements store.Engine: the freshest visible version
// across the active memtable, the frozen memtable (if a flush is in
// progress) and every immutable run. Runs are probed without any lock —
// a Bloom-filter check, then at most one block of the mapping each.
func (e *Engine) ReadVisible(key string, visible store.VisibleFunc) *store.Version {
	tabs := e.tabs.Load()
	keys, out := [1]string{key}, [1]*store.Version{tabs.active.ReadVisible(key, visible)}
	e.mergeBatch(tabs, keys[:], visible, out[:])
	return out[0]
}

// ReadVisibleBatch implements store.Engine.
func (e *Engine) ReadVisibleBatch(keys []string, visible store.VisibleFunc) []*store.Version {
	return e.ReadVisibleBatchInto(keys, visible, nil)
}

// ReadVisibleBatchInto implements store.Engine: the active memtable is
// resolved with the striped batch read (one read-lock acquisition per
// touched stripe), then each key is merged against the frozen memtable
// and the immutable runs lock-free. With a large-enough caller buffer the
// call performs no heap allocation on the memtable-hit path — run probes
// run entirely in pooled scratch — and two when runs answer: the call's
// version slab and value arena.
func (e *Engine) ReadVisibleBatchInto(keys []string, visible store.VisibleFunc, out []*store.Version) []*store.Version {
	tabs := e.tabs.Load()
	out = tabs.active.ReadVisibleBatchInto(keys, visible, out)
	e.mergeBatch(tabs, keys, visible, out)
	return out
}

// Latest implements store.Engine.
func (e *Engine) Latest(key string) *store.Version {
	tabs := e.tabs.Load()
	keys, out := [1]string{key}, [1]*store.Version{tabs.active.Latest(key)}
	e.mergeBatch(tabs, keys[:], alwaysVisible, out[:])
	return out[0]
}

// VersionsOf implements store.Engine: memtable counts plus one block
// read per run that may hold the key.
func (e *Engine) VersionsOf(key string) int {
	for {
		tabs := e.tabs.Load()
		n := tabs.active.VersionsOf(key)
		if tabs.frozen != nil {
			n += tabs.frozen.VersionsOf(key)
		}
		ok := true
		for _, r := range tabs.runs {
			var m int
			if m, ok = e.countKey(r, key); !ok {
				break // run retired mid-read: retry on fresh tables
			}
			n += m
		}
		if ok {
			return n
		}
	}
}

// fenceFor returns the index of the block that may hold key: the last
// fence with firstKey <= key, or -1 when key sorts before the whole run.
// Written as a plain loop (not sort.Search) so the read hot path stays
// closure- and allocation-free.
func (r *run) fenceFor(key string) int {
	lo, hi := 0, len(r.fences)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.fences[mid].firstKey <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// block returns block bi of r: a slice of the mapping, valid only while
// the caller holds a file reference and touched only under readMapped.
func (r *run) block(bi int) []byte {
	fe := r.fences[bi]
	return r.file.data[fe.off : fe.off+int64(fe.length)]
}

// chainIn is the one walk over a block's records that point reads and
// VersionsOf share. It steps through blk from its first record to key's
// chain and down the chain, newest first, verifying the frame and CRC of
// every record it walks, and hands each chain record's verified payload to
// fn, which returns false to stop. The walk also stops after limit chain
// records (limit < 0: no bound), at a record sorting after key when the
// block holds no chain of key, and at the chain's end: the record after
// the chain is recognised by its key field alone and is not walked.
// checked counts the records walked. A record that does not frame or
// checksum ends the walk: bad is its offset in blk (-1 when the walk ended
// cleanly).
func chainIn(blk []byte, key string, limit int, fn func(payload []byte) bool) (checked, bad int) {
	n := 0 // chain records walked
	for off := 0; off+logrec.HeaderSize <= len(blk) && n != limit; {
		end := off + logrec.HeaderSize + int(binary.LittleEndian.Uint32(blk[off:]))
		if end > len(blk) {
			return checked + 1, off
		}
		payload := blk[off+logrec.HeaderSize : end]
		k := wire.NewDecoder(payload).BytesField()
		if n > 0 && string(k) != key {
			break // past the chain
		}
		checked++
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(blk[off+4:]) {
			return checked, off
		}
		off = end
		if n == 0 && string(k) != key {
			if string(k) > key {
				break // keys ascend: the block holds no chain of key
			}
			continue
		}
		n++
		if !fn(payload) {
			break
		}
	}
	return checked, -1
}

// walkChain runs chainIn over block bi of r while the bytes are still
// mapped: one file reference spans the walk and fn, and both run under
// readMapped. A fault or a corrupt record is recorded as a read error; fn
// then has seen at most the verified records before it, and nothing more
// after a fault. The result is false only when the run was retired
// concurrently — the caller reloads the tables and retries.
func (e *Engine) walkChain(r *run, bi int, key string, limit int, fn func(payload []byte) bool) bool {
	if !r.file.acquire() {
		return false
	}
	defer r.file.release()
	e.blockReads.Add(1)
	bad, checked := -1, 0
	err := readMapped(func() { checked, bad = chainIn(r.block(bi), key, limit, fn) })
	e.recordsChecked.Add(uint64(checked))
	switch off := r.fences[bi].off; {
	case err != nil:
		e.recordErr(fmt.Errorf("sst: read run block %s@%d: %w", r.path, off, err))
	case bad >= 0:
		e.recordErr(fmt.Errorf("sst: corrupt record in run block %s@%d", r.path, off+int64(bad)))
	}
	return true
}

// probeScratch is the pooled state of one read call's run probes. ver is
// the record being decided on, decoded in place (its Value aliases the
// mapping); win is the current key's best run version so far, its value
// and dependency vector copied into the staging buffers vals and dvs;
// wins are the call's kept winners, each answering out[slots[i]], until
// publish materializes them. Reads borrow it once per call, so the
// steady-state point-read path allocates nothing but what it returns.
type probeScratch struct {
	dv  []hlc.Timestamp
	ver store.Version

	win   store.Version
	wins  []store.Version
	slots []int
	vals  []byte
	dvs   []hlc.Timestamp
}

var probePool = sync.Pool{New: func() any { return new(probeScratch) }}

// maxStagedBytes bounds the staging buffer a pooled scratch keeps between
// calls; one very large value must not stay pinned in the pool.
const maxStagedBytes = 1 << 20

// stage makes ver, whose value and dependency vector alias the mapping,
// the current key's run winner, copying both into the staging buffers.
// A non-tombstone value stays non-nil when it is empty.
func (sc *probeScratch) stage(ver *store.Version) *store.Version {
	sc.win = *ver
	if ver.Value != nil {
		sc.vals = append(sc.vals, ver.Value...)
		n := len(sc.vals)
		sc.win.Value = sc.vals[n-len(ver.Value) : n : n]
		if len(ver.Value) == 0 {
			sc.win.Value = []byte{}
		}
	}
	if len(ver.DV) > 0 {
		sc.dvs = append(sc.dvs, ver.DV...)
		n := len(sc.dvs)
		sc.win.DV = sc.dvs[n-len(ver.DV) : n : n]
	}
	return &sc.win
}

// publish materializes the call's kept winners into out: one slab for the
// versions, one arena for their values, and — only when some version
// carries one — one for their dependency vectors. Then it resets the
// scratch for the next call.
func (sc *probeScratch) publish(out []*store.Version) {
	if len(sc.wins) > 0 {
		slab := make([]store.Version, len(sc.wins))
		valBytes, dvLen := 0, 0
		for i := range sc.wins {
			valBytes += len(sc.wins[i].Value)
			dvLen += len(sc.wins[i].DV)
		}
		arena := make([]byte, 0, valBytes)
		var dvs []hlc.Timestamp
		if dvLen > 0 {
			dvs = make([]hlc.Timestamp, 0, dvLen)
		}
		for i, w := range sc.wins {
			if w.Value != nil {
				arena = append(arena, w.Value...)
				w.Value = arena[len(arena)-len(w.Value) : len(arena) : len(arena)]
			}
			if w.DV != nil {
				dvs = append(dvs, w.DV...)
				w.DV = dvs[len(dvs)-len(w.DV) : len(dvs) : len(dvs)]
			}
			slab[i] = w
			out[sc.slots[i]] = &slab[i]
		}
	}
	clear(sc.wins)
	sc.wins, sc.slots, sc.dvs = sc.wins[:0], sc.slots[:0], sc.dvs[:0]
	sc.win = store.Version{}
	sc.vals = sc.vals[:0]
	if cap(sc.vals) > maxStagedBytes {
		sc.vals = nil
	}
}

// probeRun merges run r into the running best version for key: if the
// freshest version of key in r that satisfies visible strictly beats cur
// in last-writer-wins order, it is staged as the key's winner (sc.stage)
// and &sc.win returned; otherwise cur comes back untouched. The second
// result is false only when the run was retired concurrently — the caller
// reloads the tables and retries.
//
// The walk goes down the chain newest first, decoding each record into the
// pooled scratch in place in the mapping, and stops at the first record it
// can decide on: one cur is not older than (nothing further down can win),
// or the first visible one — the freshest visible, which is staged while
// the mapping is still held. It never goes past the versions the GC
// overlay leaves live. A Bloom miss answers from memory alone. The
// visibility predicate sees sc.ver, whose Value aliases the mapping: it
// must not retain it.
func (e *Engine) probeRun(r *run, key string, visible store.VisibleFunc, cur *store.Version, sc *probeScratch) (*store.Version, bool) {
	if !r.filter.mayContain(key) {
		e.bloomSkips.Add(1)
		return cur, true
	}
	bi := r.fenceFor(key)
	limit, cut := r.live[key]
	if bi < 0 || (cut && limit == 0) {
		return cur, true // sorts before the run (a filter false positive), or GC cut the whole chain
	}
	if !cut {
		limit = -1
	}
	v := cur
	ok := e.walkChain(r, bi, key, limit, func(payload []byte) bool {
		ver := &sc.ver
		var err error
		if _, sc.dv, err = logrec.DecodeInto(payload, ver, sc.dv[:0]); err != nil {
			e.recordErr(fmt.Errorf("sst: corrupt record in run %s: %w", r.path, err))
			return false
		}
		if cur != nil && !cur.Less(ver) {
			return false // the resident version is at least as fresh as the rest of the chain
		}
		if !visible(ver) {
			return true
		}
		v = sc.stage(ver)
		return false
	})
	sc.ver.Value = nil // drop the alias into the mapping
	return v, ok
}

// countKey returns how many live versions of key run r holds: the GC
// overlay's count when it has one, else the file chain's length, walking
// at most one block with every walked record checksummed. The second
// result is false only when the run was retired concurrently.
func (e *Engine) countKey(r *run, key string) (int, bool) {
	if n, ok := r.live[key]; ok {
		return n, true
	}
	if !r.filter.mayContain(key) {
		return 0, true
	}
	bi := r.fenceFor(key)
	if bi < 0 {
		return 0, true
	}
	n := 0
	ok := e.walkChain(r, bi, key, -1, func([]byte) bool { n++; return true })
	return n, ok
}
