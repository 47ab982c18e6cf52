package sst

import (
	"maps"
	"sort"

	"wren/internal/hlc"
	"wren/internal/store"
)

// GC implements store.Engine.
func (e *Engine) GC(oldest hlc.Timestamp) int { return e.GCStats(oldest).Removed }

// GCStats implements store.Engine. GC must make ONE decision per key
// across every tier: with a chain split between the memtable and several
// runs, each tier's own "newest version with UT ≤ oldest" differs from
// the global one, and pruning tiers independently would keep one extra
// version per tier and break the exact accounting the Engine contract
// promises. gcPass.visit is that decision; what a pass costs is decided by
// which keys it visits.
//
// A pass visits the keys written since the last pass plus the pending set
// — the keys an earlier pass (or a flush) left unsettled. A key is
// unsettled while more than one live version of it exists across the
// memtable and the runs, or its only live version is a tombstone; any
// other key holds at most one version, a value, and no floor can prune it
// until it is written again. Two rules keep that complete:
//
//   - A key MUST stay pending while a later floor could still prune it; it
//     MUST NOT leave the set on anything but visit's own verdict.
//   - A write MUST reach the next pass's candidates (the write lists) or a
//     run's pending rule (writeRun) before the memtable that holds it is
//     retired; the lists MUST NOT be dropped anywhere else.
//
// Each run is read through one forward cursor that jumps through the fence
// index to the candidate's block, and not at all where its Bloom filter
// rules the key out, so the pass costs what was written, not what is
// stored. The exception is the first pass after Open found run files: the
// overlay cuts are not persisted, so that pass streams every run once to
// rebuild them (and the pending set) exactly as a pass always did; a failed
// flush asks for the same.
//
// The memtable is pruned through PruneChain, the runs through the per-run
// overlay cuts, published as cloned run structs wholesale so concurrent
// readers stay lock-free. Run FILES keep the garbage until compaction
// rewrites them; the cut totals feed that trigger.
func (e *Engine) GCStats(oldest hlc.Timestamp) store.GCResult {
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	written := e.drainWritten()
	res := store.GCResult{PerShard: make([]int, e.nShards)}
	tabs := e.tabs.Load()
	if len(tabs.runs) == 0 {
		// Pure-memtable tiering: the striped store's own GC has identical
		// semantics and accounting. Whatever it leaves unsettled is in the
		// memtable, and the flush that retires it applies writeRun's rule.
		clear(e.pending)
		e.gcPending.Store(0)
		return tabs.active.GCStats(oldest)
	}

	n := len(tabs.runs)
	p := &gcPass{
		e: e, tabs: tabs, oldest: oldest, res: res,
		newLive: make([]map[string]int, n), addCut: make([]int, n), addDead: make([]int, n),
	}
	// A nil cursor — a retired run, impossible under flushMu — holds nothing.
	p.cs, _ = openCursors(e, tabs.runs, "")
	if e.gcStream {
		e.gcStream = false
		clear(e.pending) // visit rebuilds it
		p.streamAll()
	} else {
		for _, k := range written {
			e.pending[k] = struct{}{} // a hot key written 1 000 times is one visit
		}
		keys := make([]string, 0, len(e.pending))
		for k := range e.pending {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		p.seekEach(keys)
	}
	p.cs.close()
	e.gcPending.Store(int64(len(e.pending)))
	p.publishCuts()
	for _, removed := range p.res.PerShard {
		p.res.Removed += removed
	}
	e.maybeCompactLocked()
	return p.res
}

// gcPass is the state of one GCStats call over a tiering with runs: one
// cursor per run, the overlay cuts it extends, the accounting. Caller holds
// flushMu throughout.
type gcPass struct {
	e      *Engine
	tabs   *tables
	oldest hlc.Timestamp
	res    store.GCResult

	cs cursorSet // one cursor per tabs.runs entry; at marks the runs holding the visited key

	newLive []map[string]int // nil = run unchanged
	addCut  []int
	addDead []int

	scratch []*store.Version
}

// streamAll visits every key of every tier: a k-way merge of the run files
// (one mapped block at a time — run data is not resident) against the
// memtable's ordered key index. visit may drop the memtable key it is on;
// the index cursor resumes after it.
func (p *gcPass) streamAll() {
	mem := p.tabs.active.KeysFrom("")
	memLive := mem.Next()
	p.cs.seek("")
	for {
		key, have := "", false
		if memLive {
			key, have = mem.Key(), true
		}
		if key, have = p.cs.least(key, have); !have {
			return
		}
		p.visit(key)
		if memLive && mem.Key() == key {
			memLive = mem.Next()
		}
		p.cs.advance()
	}
}

// seekEach visits the given keys (ascending): each run's cursor jumps to
// the key's block, and a run whose filter rules the key out is not read.
func (p *gcPass) seekEach(keys []string) {
	for _, key := range keys {
		for i, it := range p.cs.its {
			p.cs.at[i] = it != nil && it.r.filter.mayContain(key) && it.advanceTo(key) && it.key == key
		}
		p.visit(key)
	}
}

// cutFor is the overlay cut of key's n-version file chain in run ri as
// this pass has it so far.
func (p *gcPass) cutFor(ri int, key string, n int) int {
	if m := p.newLive[ri]; m != nil {
		return cutOf(m, key, n)
	}
	return cutOf(p.tabs.runs[ri].live, key, n)
}

// visit makes the GC decision for one key — the runs holding it are the
// cursors marked in p.cs.at — and files the key as pending or settled. It
// computes the global base (the newest version with UT ≤ oldest across all
// tiers), prunes the memtable and extends the runs' cuts below it.
func (p *gcPass) visit(key string) {
	e, active, oldest := p.e, p.tabs.active, p.oldest
	e.gcVisited.Add(1)
	p.scratch = active.ChainInto(key, p.scratch[:0])
	memLen := len(p.scratch)
	var base, newest *store.Version
	scan := func(chain []*store.Version) {
		if len(chain) == 0 {
			return
		}
		if t := chain[len(chain)-1]; newest == nil || newest.Less(t) {
			newest = t
		}
		for i := len(chain) - 1; i >= 0; i-- {
			if chain[i].UT <= oldest {
				if base == nil || base.Less(chain[i]) {
					base = chain[i]
				}
				break
			}
		}
	}
	scan(p.scratch)
	liveVersions := memLen
	fileHasKey := false
	for i, it := range p.cs.its {
		if !p.cs.at[i] {
			continue
		}
		fileHasKey = true
		if cut := p.cutFor(i, key, len(it.chain)); cut < len(it.chain) {
			scan(it.chain[cut:])
			liveVersions += len(it.chain) - cut
		}
	}
	// Durability gates the RUN side of a whole-chain drop too: when the
	// stable tombstone is in a run file and the memtable holds only older
	// versions, the log keeps those until the next flush retires its
	// generation, and the tombstone is their only durable witness. Cut, it
	// could leave the disk at the next compaction, and the next Open would
	// replay the older versions — the deleted key back. The whole decision
	// waits for that flush; until then the key stays pending.
	if base != nil && base.Value == nil && base == newest && memLen > 0 && p.scratch[memLen-1].Less(base) {
		base = nil
	}
	removed := 0
	if base != nil { // else every surviving version is newer than the snapshot
		// The stable snapshot base is a tombstone and nothing newer exists
		// in any tier: every reader would see "not found" — drop the whole
		// chain. The drop is bounded by base (see store.ChainCut): a write
		// racing into the memtable after this decision is newer than base
		// and survives.
		//
		// Durability gates the MEMTABLE side of the drop: while any run
		// FILE still holds versions of the key (files shrink only at
		// compaction — a fully-cut chain is still file-resident), the
		// memtable tombstone — whose WAL generation the next flush will
		// supersede — is the only durable witness shadowing them. Dropping
		// it would let a crash resurrect the deleted key from the stale
		// run file. So the tombstone is kept and flushes into a run like
		// any version; it leaves memory at a later pass (once only files
		// hold it) and leaves the disk when compaction rewrites the files.
		dropWhole := base.Value == nil && base == newest
		memDrop := dropWhole && !fileHasKey
		removed = active.PruneChain(key, base, memDrop)
		for i, it := range p.cs.its {
			if !p.cs.at[i] {
				continue
			}
			prior := p.cutFor(i, key, len(it.chain))
			if prior >= len(it.chain) {
				continue // already fully cut
			}
			cut := store.ChainCut(it.chain[prior:], base, dropWhole)
			if cut == 0 {
				continue
			}
			if p.newLive[i] == nil {
				r := p.tabs.runs[i]
				p.newLive[i] = make(map[string]int, len(r.live)+1)
				maps.Copy(p.newLive[i], r.live)
			}
			p.newLive[i][key] = len(it.chain) - prior - cut
			p.addCut[i] += cut
			removed += cut
			if prior+cut >= len(it.chain) {
				p.addDead[i]++
			}
		}
		if removed > 0 {
			p.res.PerShard[store.Fingerprint(key)&e.mask] += removed
		}
		// The chain counts as dropped once no in-memory tier shows it:
		// either the memtable side was allowed to drop, or the chain
		// lived only in run files (all of which dropWhole just cut).
		if dropWhole && (memDrop || memLen == 0) {
			p.res.DroppedKeys++
		}
	}
	// What survives is base and everything newer, newest among it. A
	// write racing in since the snapshot is in the next pass's lists.
	if left := liveVersions - removed; left > 1 || (left == 1 && newest.Value == nil) {
		e.pending[key] = struct{}{}
	} else {
		delete(e.pending, key)
	}
}

// publishCuts swaps in cloned run structs for the runs whose overlay this
// pass extended.
func (p *gcPass) publishCuts() {
	changed := false
	newRuns := make([]*run, len(p.tabs.runs))
	for ri, r := range p.tabs.runs {
		if p.newLive[ri] == nil {
			newRuns[ri] = r
			continue
		}
		changed = true
		nr := *r // shares the refcounted file; the overlay is replaced wholesale
		nr.live = p.newLive[ri]
		nr.cutTotal = r.cutTotal + p.addCut[ri]
		nr.deadKeys = r.deadKeys + p.addDead[ri]
		newRuns[ri] = &nr
	}
	if changed {
		cur := p.e.tabs.Load()
		p.e.tabs.Store(&tables{active: cur.active, runs: newRuns})
	}
}
