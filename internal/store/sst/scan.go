package sst

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

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
// materialized copy — fn may retain it.
func (e *Engine) Scan(start, end string, visible store.VisibleFunc, fn func(key string, v *store.Version) bool) error {
	tabs, cs := e.pinRuns(end)
	defer cs.close()

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
		for i, it := range cs.its {
			if !cs.at[i] {
				continue
			}
			if cut := cutOf(it.r.live, key, len(it.chain)); cut < len(it.chain) {
				v = best(v, store.ReadVisibleChain(it.chain[cut:], visible))
			}
		}
		cs.advance()
		if v != nil && v.Value != nil && !fn(key, v) {
			return nil
		}
	}
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
// every walk of the mapping runs under readMapped (see walk); what it
// yields is decoded copies, valid after close. It only moves forward: next
// steps to the following key, advanceTo jumps through the fence index to
// the block of a later one.
type runIterator struct {
	e   *Engine
	r   *run
	bi  int    // next block to enter
	blk []byte // unparsed remainder of the current block, in the mapping

	key   string
	chain []*store.Version // non-empty exactly while positioned on key

	pkey string // first record of the next key, parsed past the boundary
	pv   *store.Version
	pok  bool

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
// key's chain ends its block — next parses one record past the boundary),
// not the distance travelled.
func (it *runIterator) advanceTo(key string) bool {
	if len(it.chain) > 0 && it.key >= key {
		return true
	}
	if bi := it.r.fenceFor(key); bi >= it.bi {
		// The rest of the current block and the lookahead record all sort
		// before fences[bi].firstKey <= key.
		it.bi, it.blk, it.pok = bi, nil, false
	}
	// Walk up to key inside the block without materializing what is
	// skipped: only the record's leading key field is looked at.
	if it.pok && it.pkey < key {
		it.pok = false
	}
	it.walk(func() {
		for !it.pok {
			payload, ok := it.frame()
			if !ok || string(wire.NewDecoder(payload).BytesField()) >= key {
				break
			}
			it.blk = it.blk[logrec.HeaderSize+len(payload):]
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

func (it *runIterator) step() bool {
	it.chain = it.chain[:0]
	if it.err != nil {
		return false
	}
	if it.pok {
		it.key = it.pkey
		it.chain = append(it.chain, it.pv)
		it.pok = false
	} else {
		k, v, ok := it.record()
		if !ok {
			return false
		}
		it.key = k
		it.chain = append(it.chain, v)
	}
	for {
		k, v, ok := it.record()
		if ok && k == it.key {
			it.chain = append(it.chain, v)
			continue
		}
		if ok {
			it.pkey, it.pv, it.pok = k, v, true
		}
		slices.Reverse(it.chain) // the file holds chains newest first
		return true
	}
}

// frame returns the payload of the next record without consuming it,
// entering the next block when the current one is exhausted.
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
	payload := it.blk[logrec.HeaderSize : logrec.HeaderSize+plen]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(it.blk[4:8]) {
		it.fail(fmt.Errorf("sst: corrupt record in run %s", it.r.path))
		return nil, false
	}
	return payload, true
}

// record parses and consumes one version record.
func (it *runIterator) record() (string, *store.Version, bool) {
	payload, ok := it.frame()
	if !ok {
		return "", nil, false
	}
	key, v, err := logrec.Decode(payload)
	if err != nil {
		it.fail(fmt.Errorf("sst: corrupt record in run %s: %w", it.r.path, err))
		return "", nil, false
	}
	it.blk = it.blk[logrec.HeaderSize+len(payload):]
	return key, v, true
}

func (it *runIterator) fail(err error) {
	if it.err == nil {
		it.err = err
		it.e.recordErr(err)
	}
}
