package sst

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"wren/internal/hlc"
	"wren/internal/store"
	"wren/internal/store/logrec"
	"wren/internal/wire"
)

// Scan implements store.Engine: a streaming merge of the memtables and
// every run file over [start, end), in ascending key order. It takes no
// engine lock — a scan never waits for a flush, a compaction or a GC pass.
// Run files are pinned the way point reads pin them (pinRuns) and read
// block-at-a-time; memtable keys come off the memtable's ordered key index
// (store.KeysFrom), so a scan that stops early pays for the keys it
// yielded, not for the memtable's size. Each yielded version is a
// materialized copy — fn may retain it: a run's version is copied out of
// the iterator and the mapping, under readMapped, before the cursors move.
func (e *Engine) Scan(start, end string, visible store.VisibleFunc, fn func(key string, v *store.Version) bool) error {
	tabs, cs := e.pinRuns(end)
	defer cs.close()
	var copies versionCopier

	mem := tabs.active.KeysFrom(start)
	memLive := mem.Next() && cs.before(mem.Key())
	var frozen *store.KeyIter
	frozenLive := false
	if tabs.frozen != nil {
		frozen = tabs.frozen.KeysFrom(start)
		frozenLive = frozen.Next() && cs.before(frozen.Key())
	}
	cs.seek(start)
	for {
		key, have := "", false
		if memLive {
			key, have = mem.Key(), true
		}
		if frozenLive && (!have || frozen.Key() < key) {
			key, have = frozen.Key(), true
		}
		if key, have = cs.least(key, have); !have {
			return cs.err()
		}
		var v *store.Version
		if memLive && mem.Key() == key {
			v = best(v, tabs.active.ReadVisible(key, visible))
			memLive = mem.Next() && cs.before(mem.Key())
		}
		if frozenLive && frozen.Key() == key {
			v = best(v, tabs.frozen.ReadVisible(key, visible))
			frozenLive = frozen.Next() && cs.before(frozen.Key())
		}
		var inRun *store.Version
		for i, it := range cs.its {
			if !cs.at[i] {
				continue
			}
			if cut := cutOf(it.r.live, key, len(it.chain)); cut < len(it.chain) {
				inRun = best(inRun, store.ReadVisibleChain(it.chain[cut:], visible))
			}
		}
		if w := best(v, inRun); w != v {
			v = nil // a tombstone yields nothing; the slab is reused by advance
			if w.Value != nil {
				if err := readMapped(func() { v = copies.copy(w) }); err != nil {
					err = fmt.Errorf("sst: scan: read run value of %q: %w", key, err)
					e.recordErr(err)
					return err
				}
			}
		}
		cs.advance()
		if v != nil && v.Value != nil && !fn(key, v) {
			return nil
		}
	}
}

// versionCopier materializes the run versions a Scan yields a chunk at a
// time: versions go into a slab of copyChunk, values into a shared buffer
// of at least copyChunkBytes, so a yielded key costs its key string and a
// share of a chunk. A retained version keeps its chunks alive.
type versionCopier struct {
	vers []store.Version
	vals []byte
}

const (
	copyChunk      = 32
	copyChunkBytes = 4 << 10
)

// copy returns an owned copy of v, a non-tombstone version; an empty value
// stays non-nil.
func (c *versionCopier) copy(v *store.Version) *store.Version {
	if len(c.vers) == cap(c.vers) {
		c.vers = make([]store.Version, 0, copyChunk)
	}
	c.vers = append(c.vers, *v)
	out := &c.vers[len(c.vers)-1]
	n := len(v.Value)
	if c.vals == nil || n > cap(c.vals)-len(c.vals) {
		c.vals = make([]byte, 0, max(n, copyChunkBytes))
	}
	c.vals = append(c.vals, v.Value...)
	out.Value = c.vals[len(c.vals)-n : len(c.vals) : len(c.vals)]
	out.DV = slices.Clone(v.DV)
	return out
}

// pinRuns loads the current tables and opens a cursor on every run in
// them, each holding a file reference, so a compaction may retire the runs
// mid-scan but cannot close them. A run already retired and released means
// newer tables were published before its release: drop what was taken,
// reload and retry.
func (e *Engine) pinRuns(end string) (*tables, cursorSet) {
	for {
		tabs := e.tabs.Load()
		cs, ok := openCursors(e, tabs.runs, end)
		if ok {
			return tabs, cs
		}
		cs.close()
	}
}

// cursorSet is the one k-way merge over run files: a cursor per run,
// walked in key order together. Scan, compaction and the streaming GC pass
// each merge their own memtable side in through least and read the chains
// of the cursors at marks; none of them repeats the cursor loop.
type cursorSet struct {
	its []*runIterator // one per run; nil for a run retired before it was opened
	on  []bool         // its[i] is positioned on a key before end
	at  []bool         // its[i] is on the key least returned last
	end string         // exclusive upper bound; "" = none
}

// openCursors opens a cursor on each of runs. ok is false when a run was
// already retired: its cursor is nil, and close releases the others.
func openCursors(e *Engine, runs []*run, end string) (cs cursorSet, ok bool) {
	flags := make([]bool, 2*len(runs))
	cs = cursorSet{its: make([]*runIterator, len(runs)), on: flags[:len(runs)], at: flags[len(runs):], end: end}
	ok = true
	for i, r := range runs {
		if cs.its[i] = newRunIterator(e, r); cs.its[i] == nil {
			ok = false
		}
	}
	return cs, ok
}

func (cs *cursorSet) before(key string) bool { return cs.end == "" || key < cs.end }

// seek positions every cursor on its first key >= start. On fresh cursors
// seek("") is one next each: it enters the first block and nothing else.
func (cs *cursorSet) seek(start string) {
	for i, it := range cs.its {
		cs.on[i] = it != nil && it.advanceTo(start) && cs.before(it.key)
	}
}

// least returns the smallest of key (when have) and the cursors' keys, and
// marks at the cursors on it; have is false once every side is exhausted.
func (cs *cursorSet) least(key string, have bool) (string, bool) {
	for i, it := range cs.its {
		if cs.on[i] && (!have || it.key < key) {
			key, have = it.key, true
		}
	}
	for i, it := range cs.its {
		cs.at[i] = cs.on[i] && it.key == key
	}
	return key, have
}

// advance steps the cursors at marks past their key.
func (cs *cursorSet) advance() {
	for i, it := range cs.its {
		if cs.at[i] {
			cs.on[i] = it.next() && cs.before(it.key)
		}
	}
}

// err returns the first cursor failure (already recorded for Healthy).
func (cs *cursorSet) err() error {
	for _, it := range cs.its {
		if it != nil && it.err != nil {
			return it.err
		}
	}
	return nil
}

func (cs *cursorSet) close() {
	for _, it := range cs.its {
		if it != nil {
			it.close()
		}
	}
}

// runIterator streams a run's records in key order, one mapped block at a
// time, yielding each key's full file chain in ascending last-writer-wins
// order (the file holds it newest first; the GC overlay is the caller's to
// apply — GC accounting needs the full chain, scans need the live one).
// Every record it yields is checksummed.
// The iterator holds a file reference from newRunIterator until close, and
// every walk of the mapping runs under readMapped (see walk). Records are
// decoded in place: the chain's versions live in a slab the iterator
// reuses on the next step, their values alias the mapping, and each chain
// allocates only its key. So a chain is read only under readMapped and
// never leaves the engine (see the package comment); Scan copies the
// version it yields. It only moves forward: next steps to the following
// key, advanceTo jumps through the fence index to the block of a later one.
type runIterator struct {
	e   *Engine
	r   *run
	bi  int    // next block to enter
	blk []byte // unparsed remainder of the current block, in the mapping

	key   string
	chain []*store.Version // non-empty exactly while positioned on key; points into slab

	slab []store.Version // the chain's versions, newest first as in the file
	dvs  []hlc.Timestamp // their dependency vectors

	err error
}

// newRunIterator acquires the run's file. It returns nil only when the
// run was already retired: impossible under flushMu, which serializes
// retirement; a caller without it reloads the tables and retries.
func newRunIterator(e *Engine, r *run) *runIterator {
	if !r.file.acquire() {
		return nil
	}
	return &runIterator{e: e, r: r}
}

func (it *runIterator) close() { it.r.file.release() }

// walk runs fn, which reads the mapping, under readMapped: a fault fails
// the iterator the way a corrupt record does.
func (it *runIterator) walk(fn func()) {
	if err := readMapped(fn); err != nil {
		it.chain = it.chain[:0]
		it.fail(fmt.Errorf("sst: read run %s: %w", it.r.path, err))
	}
}

// advanceTo positions the iterator on the first key >= key at or after
// its current position and reports whether there is one. When the fence
// index places key in a block not entered yet, everything in between is
// skipped untouched: the cost is the target block (plus the next one when
// key's chain ends its block — a step looks at one record past the
// boundary), not the distance travelled.
func (it *runIterator) advanceTo(key string) bool {
	if len(it.chain) > 0 && it.key >= key {
		return true
	}
	if bi := it.r.fenceFor(key); bi >= it.bi {
		// The rest of the current block sorts before fences[bi].firstKey <= key.
		it.bi, it.blk = bi, nil
	}
	// Walk up to key inside the block without decoding what is skipped:
	// only the record's leading key field is looked at.
	it.walk(func() {
		for {
			payload, ok := it.frame()
			if !ok || string(recordKey(payload)) >= key || !it.consume(payload) {
				break
			}
		}
	})
	return it.next()
}

// next advances to the next key, filling it.key and it.chain (reused
// between calls — callers must consume before advancing). It returns
// false at the end of the run, on a corrupt record or on a fault (both
// surfaced via it.err and the engine health signal).
func (it *runIterator) next() bool {
	ok := false
	it.walk(func() { ok = it.step() })
	return ok
}

// step decodes the next key's chain into the slab. The record after the
// chain is recognised by its key field and left unconsumed for the next
// step. A record that fails its checksum or does not decode ends the
// chain at the versions before it (the error surfaces on the next step).
func (it *runIterator) step() bool {
	it.chain, it.slab, it.dvs = it.chain[:0], it.slab[:0], it.dvs[:0]
	for {
		payload, ok := it.frame()
		if !ok {
			break
		}
		k := recordKey(payload)
		if len(it.slab) > 0 && string(k) != it.key {
			break
		}
		if !it.consume(payload) {
			break
		}
		var v store.Version
		var err error
		if k, it.dvs, err = logrec.DecodeInto(payload, &v, it.dvs); err != nil {
			it.fail(fmt.Errorf("sst: corrupt record in run %s: %w", it.r.path, err))
			break
		}
		if len(it.slab) == 0 {
			it.key = string(k)
		}
		it.slab = append(it.slab, v)
	}
	if len(it.slab) == 0 {
		return false
	}
	for i := len(it.slab) - 1; i >= 0; i-- { // the file holds chains newest first
		it.chain = append(it.chain, &it.slab[i])
	}
	return true
}

// frame returns the payload of the next record without consuming it,
// entering the next block when the current one is exhausted. The payload
// is not checksummed yet: consume does that.
func (it *runIterator) frame() ([]byte, bool) {
	if it.err != nil {
		return nil, false
	}
	for len(it.blk) == 0 {
		if it.bi >= len(it.r.fences) {
			return nil, false
		}
		it.blk = it.r.block(it.bi)
		it.bi++
		it.e.iterBlockReads.Add(1)
	}
	if len(it.blk) < logrec.HeaderSize {
		it.fail(fmt.Errorf("sst: torn record in run %s", it.r.path))
		return nil, false
	}
	plen := int(binary.LittleEndian.Uint32(it.blk[:4]))
	if logrec.HeaderSize+plen > len(it.blk) {
		it.fail(fmt.Errorf("sst: torn record in run %s", it.r.path))
		return nil, false
	}
	return it.blk[logrec.HeaderSize : logrec.HeaderSize+plen], true
}

// consume checksums the record frame returned and steps past it.
func (it *runIterator) consume(payload []byte) bool {
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(it.blk[4:8]) {
		it.fail(fmt.Errorf("sst: corrupt record in run %s", it.r.path))
		return false
	}
	it.blk = it.blk[logrec.HeaderSize+len(payload):]
	return true
}

// recordKey is a record payload's leading key field.
func recordKey(payload []byte) []byte { return wire.NewDecoder(payload).BytesField() }

func (it *runIterator) fail(err error) {
	if it.err == nil {
		it.err = err
		it.e.recordErr(err)
	}
}
