package sst

import (
	"fmt"
	"os"
	"sort"

	"wren/internal/hlc"
	"wren/internal/store"
	"wren/internal/store/fsutil"
)

// Flush freezes the active memtable and writes it out as one immutable
// sorted run, then deletes the log generations the run supersedes. It is
// a no-op on an empty memtable. Flush is what the background trigger
// calls; tests and tooling may call it directly.
func (e *Engine) Flush() error {
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	return e.flushLocked()
}

// flushLocked rotates the log in two steps. First it creates the next
// generation's file and syncs the directory, with no stripe lock held:
// writers keep appending to the active generation meanwhile, and the new
// file's entry is stable before any write can land in it (a barrier Sync
// syncs file contents, not directory entries). Then the freeze takes every
// stripe lock and swaps the memtable and the log pointer, and nothing else.
// A crash between the two steps leaves an empty newest generation, which
// recovery takes as the active one. Caller holds flushMu.
func (e *Engine) flushLocked() error {
	tabs := e.tabs.Load()
	if tabs.frozen != nil {
		return nil // only after a simulated-crash hook; never in production
	}
	if tabs.active.Versions() == 0 {
		return nil
	}

	oldGen := e.gen
	newGen := oldGen + 1
	next, err := e.createLog(newGen)
	if err != nil {
		err = fmt.Errorf("sst: rotate wal generation: %w", err)
		e.recordErr(err)
		return err
	}
	if e.opts.crashAfterLogCreate {
		_ = next.F.Close()
		e.markCrashed()
		return nil
	}

	// Freeze: swap in a fresh memtable and the new generation under every
	// stripe lock, so each write lands wholly in the old tier or wholly in
	// the new one. The old memtable becomes the frozen tier — still
	// readable — while its run is written without any lock. syncMu is held
	// from before the swap until the rotated-out generation is stable, so
	// Sync (which takes it) never has to look behind the active generation:
	// a write that returned before Sync was called is either in the log Sync
	// reaches or in the one synced here.
	e.syncMu.Lock()
	for si := range e.stripes {
		e.stripes[si].mu.Lock()
	}
	frozenMin := e.minGen
	frozen := tabs.active
	old := e.log
	e.log = next
	for si := range e.written {
		// The listed writes are all in the memtable being frozen, and
		// writeRun settles every key of it.
		e.written[si] = e.written[si][:0]
	}
	e.gen = newGen
	e.minGen = newGen
	e.memBytes.Store(0)
	e.tabs.Store(&tables{active: store.NewSharded(e.nShards), frozen: frozen, runs: tabs.runs})
	for si := range e.stripes {
		e.stripes[si].mu.Unlock()
	}

	// The rotated-out generation may hold appends nothing has synced yet,
	// and Sync cannot reach them any more. Sync them here: Sync's promise
	// must not stretch over the whole run-write duration.
	e.syncLog(old.takeDirty())
	e.syncMu.Unlock()

	// Write the run. No locks are needed: the frozen memtable is
	// immutable, and readers keep serving from it through the tables
	// snapshot for the whole duration.
	r, err := e.writeRun(frozen, frozenMin, oldGen)
	if err != nil {
		// The frozen records are still durable in log generations
		// [frozenMin, oldGen], the newest synced above: fold the frozen
		// memtable back into the active tier and let the next flush retry
		// with a run covering the whole span.
		_ = old.F.Close()
		e.unfreeze(frozen, frozenMin)
		e.recordErr(err)
		return err
	}
	if e.opts.crashAfterFlushRename {
		_ = old.F.Close()
		e.markCrashed()
		return nil
	}

	// Publish: one atomic swap replaces the frozen memtable with the run,
	// so there is never a window where the data is invisible or counted
	// twice by the flushMu-holding counting methods.
	cur := e.tabs.Load()
	runs := make([]*run, 0, len(cur.runs)+1)
	runs = append(runs, r)
	runs = append(runs, cur.runs...)
	e.tabs.Store(&tables{active: cur.active, frozen: nil, runs: runs})

	// The durable run supersedes the log generations it covers.
	_ = old.F.Close()
	for g := frozenMin; g <= oldGen; g++ {
		if err := os.Remove(e.walPath(g)); err != nil && !os.IsNotExist(err) {
			e.recordErr(fmt.Errorf("sst: remove superseded wal: %w", err))
		}
	}
	e.metrics.add(func(m *Metrics) { m.flushes++ })
	e.maybeCompactLocked()
	return nil
}

// createLog creates generation gen's log file, empty, and syncs the
// directory so its entry survives a power loss. Caller holds flushMu.
func (e *Engine) createLog(gen uint64) (*genLog, error) {
	f, err := os.OpenFile(e.walPath(gen), os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if err := fsutil.SyncDir(e.dir); err != nil {
		_ = f.Close()
		return nil, err
	}
	return &genLog{Tail: fsutil.Tail{F: f}}, nil
}

// unfreeze folds a frozen memtable whose flush failed back into the
// active tier. Readers may briefly see a version in both tiers; the
// last-writer-wins merge makes that harmless, and the counting methods
// are blocked on flushMu (held here) until the fold completes.
func (e *Engine) unfreeze(frozen *store.Store, frozenMin uint64) {
	cur := e.tabs.Load()
	var bytes int64
	frozen.ForEachKey(func(k string) {
		for _, v := range frozen.ChainInto(k, nil) {
			cur.active.Put(k, v)
			bytes += writeSize(k, v)
		}
	})
	e.tabs.Store(&tables{active: cur.active, frozen: nil, runs: cur.runs})
	e.minGen = frozenMin
	e.memBytes.Add(bytes)
	// The freeze discarded the write lists and no run took the keys over.
	e.gcStream = true
}

// writeRun writes the frozen memtable as one immutable sorted run file
// covering WAL generations [minGen, maxGen]: keys in sorted order, each
// key's version chain contiguous in last-writer-wins (timestamp) order,
// blocked and footered by the run writer. The file is written to a temp
// name, fsynced, atomically renamed into place and the directory synced —
// only then may the WAL generations it covers be deleted.
//
// The freeze dropped the write lists, so this is where a flushed key
// reaches the GC pending set: it is unsettled when its chain here has more
// than one version or ends in a tombstone, or when an older run may hold
// more of it. Any other key has exactly one live version, a value, and no
// floor can prune that. Caller holds flushMu.
func (e *Engine) writeRun(frozen *store.Store, minGen, maxGen uint64) (*run, error) {
	w, err := newRunWriter(e.runPath(minGen, maxGen), e.blockBytes, frozen.Keys())
	if err != nil {
		return nil, err
	}
	older := e.tabs.Load().runs
	var chain []*store.Version
	for keys := frozen.KeysFrom(""); keys.Next(); {
		k := keys.Key()
		chain = frozen.ChainInto(k, chain[:0])
		w.addChain(k, chain)
		if len(chain) > 1 || chain[len(chain)-1].Value == nil || mayHold(older, k) {
			e.pending[k] = struct{}{}
		}
	}
	e.metrics.gcPending.Store(int64(len(e.pending)))
	fileSize, dataSize, err := w.finish()
	if err != nil {
		return nil, err
	}
	if err := fsutil.SyncDir(e.dir); err != nil {
		return nil, fmt.Errorf("sst: sync dir: %w", err)
	}
	r, err := w.intoRun(minGen, maxGen, fileSize, dataSize)
	if err != nil {
		return nil, err
	}
	r.level = e.levelOf(fileSize)
	return r, nil
}

// garbageLocked is the number of GC-pruned versions still occupying run
// files (the sum of the overlay cuts). Caller holds flushMu.
func (e *Engine) garbageLocked() int {
	n := 0
	for _, r := range e.tabs.Load().runs {
		n += r.cutTotal
	}
	return n
}

// levelGroup finds a gen-contiguous group of at least need runs sharing
// one size level. runs is newest-first; only adjacent-in-generation runs
// may merge — a merged output's generation interval must subsume exactly
// its inputs, or crash recovery's subsumption rule would delete an
// unmerged run sitting inside the interval.
func levelGroup(runs []*run, need int) []*run {
	for i := 0; i < len(runs); {
		j := i
		for j+1 < len(runs) && runs[j+1].level == runs[i].level && runs[j].minGen == runs[j+1].maxGen+1 {
			j++
		}
		if j-i+1 >= need {
			return runs[i : j+1]
		}
		i = j + 1
	}
	return nil
}

// maybeCompactLocked triggers compaction when enough GC-pruned garbage
// lingers in the run files (a major, whole-dataset merge that reclaims
// it) or when runs pile up within one size level (a level-scoped merge
// whose I/O is bounded by that level's size, not the dataset). Level
// merges cascade: folding four level-0 runs can produce a level-1 run
// that completes a level-1 group, and so on. Caller holds flushMu.
func (e *Engine) maybeCompactLocked() {
	if e.compactRuns < 0 {
		return
	}
	runs := e.tabs.Load().runs
	if len(runs) == 0 {
		return
	}
	if e.garbageLocked() >= e.compactGarbage {
		e.compactLocked(runs)
		return
	}
	for {
		runs = e.tabs.Load().runs
		group := levelGroup(runs, e.compactRuns)
		if group == nil {
			return
		}
		e.compactLocked(group)
		if len(e.tabs.Load().runs) >= len(runs) {
			return // the merge failed or was a no-op; don't spin
		}
	}
}

// Compact forces a major compaction folding every run into one (tests
// and tooling; production compaction is level-scoped and triggered by
// run count and GC garbage).
func (e *Engine) Compact() {
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	runs := e.tabs.Load().runs
	if len(runs) == 0 || (len(runs) == 1 && e.garbageLocked() == 0) {
		return
	}
	e.compactLocked(runs)
}

// compactLocked streams the input runs (a gen-contiguous, newest-first
// subsequence of the live runs) through a k-way merge into one output
// run: chains are merged per key in last-writer-wins order with the GC
// overlay cuts applied — so pruned versions and tombstoned chains whose
// deletion became stable leave the disk here — and the output atomically
// replaces the inputs. Input files are deleted, and their mappings
// released, only after the replacement tables are published, so a
// concurrent reader either finds its run still probeable or finds tables
// that no longer list it. Caller holds flushMu.
//
// A fully-cut chain whose freshest file version is a tombstone needs one
// more distinction: if any run OUTSIDE the merge may still hold the key,
// the tombstone is the durable witness shadowing those file-resident
// versions — dropping it would let a crash resurrect the deleted key —
// so the output keeps just the tombstone, still overlay-cut (reads skip
// it). Only when no other file can hold the key does the chain leave the
// disk entirely. A major compaction has no outside runs, which restores
// the old "merge-all drops stable tombstones" behavior.
func (e *Engine) compactLocked(inputs []*run) {
	if len(inputs) == 0 {
		return
	}
	tabs := e.tabs.Load()
	inputSet := make(map[*run]struct{}, len(inputs))
	for _, r := range inputs {
		inputSet[r] = struct{}{}
	}
	var outside []*run
	for _, r := range tabs.runs {
		if _, ok := inputSet[r]; !ok {
			outside = append(outside, r)
		}
	}

	minGen, maxGen := inputs[0].minGen, inputs[0].maxGen
	expectKeys := 1
	for _, r := range inputs {
		if r.minGen < minGen {
			minGen = r.minGen
		}
		if r.maxGen > maxGen {
			maxGen = r.maxGen
		}
		expectKeys += r.keyCount - r.deadKeys
	}
	path := e.runPath(minGen, maxGen)
	w, err := newRunWriter(path, e.blockBytes, expectKeys)
	if err != nil {
		e.recordErr(err)
		return
	}

	iters := make([]*runIterator, len(inputs))
	live := make([]bool, len(inputs))
	for i, r := range inputs {
		it := newRunIterator(e, r)
		if it == nil { // retired: impossible under flushMu, but stay safe
			for j := 0; j < i; j++ {
				iters[j].close()
			}
			w.abort()
			return
		}
		iters[i] = it
		live[i] = it.next()
	}

	outCuts := make(map[string]int)
	var merged []*store.Version
	for {
		key := ""
		have := false
		for i, it := range iters {
			if live[i] && (!have || it.key < key) {
				key, have = it.key, true
			}
		}
		if !have {
			break
		}
		merged = merged[:0]
		var lastFull *store.Version
		for i, it := range iters {
			if !live[i] || it.key != key {
				continue
			}
			full := it.chain
			if t := full[len(full)-1]; lastFull == nil || lastFull.Less(t) {
				lastFull = t
			}
			if cut := inputs[i].cuts[key]; cut < len(full) {
				merged = append(merged, full[cut:]...)
			}
		}
		if len(merged) > 0 {
			sort.Slice(merged, func(a, b int) bool { return merged[a].Less(merged[b]) })
			w.addChain(key, merged)
		} else if lastFull != nil && lastFull.Value == nil {
			if mayHold(outside, key) {
				merged = append(merged, lastFull)
				w.addChain(key, merged)
				outCuts[key]++
			}
		}
		for i, it := range iters {
			if live[i] && it.key == key {
				live[i] = it.next()
			}
		}
	}
	var iterErr error
	for _, it := range iters {
		if it.err != nil {
			iterErr = it.err
			break
		}
	}
	for _, it := range iters {
		it.close()
	}
	if iterErr != nil {
		w.abort() // the iterator already recorded the health error
		return
	}

	if w.keys == 0 {
		// Every chain was fully cut with nothing left to shadow: there is
		// no output run at all. Retire the inputs.
		w.abort()
		if e.opts.crashAfterCompactRename {
			e.markCrashed()
			return
		}
		cur := e.tabs.Load()
		e.tabs.Store(&tables{active: cur.active, frozen: cur.frozen, runs: sortRunsNewestFirst(outside)})
		for _, r := range inputs {
			if err := os.Remove(r.path); err != nil {
				e.recordErr(fmt.Errorf("sst: remove compacted run: %w", err))
			}
		}
		for _, r := range inputs {
			r.file.release()
		}
		e.metrics.add(func(m *Metrics) { m.compactions++ })
		return
	}

	fileSize, dataSize, err := w.finish()
	if err != nil {
		e.recordErr(err)
		return
	}
	if err := fsutil.SyncDir(e.dir); err != nil {
		e.recordErr(fmt.Errorf("sst: sync dir: %w", err))
		return
	}
	if e.opts.crashAfterCompactRename {
		e.markCrashed()
		return
	}
	out, err := w.intoRun(minGen, maxGen, fileSize, dataSize)
	if err != nil {
		e.recordErr(err)
		return
	}
	out.level = e.levelOf(fileSize)
	if len(outCuts) > 0 {
		out.cuts = outCuts
		for _, c := range outCuts {
			out.cutTotal += c
		}
		out.deadKeys = len(outCuts)
	}

	cur := e.tabs.Load()
	newRuns := make([]*run, 0, len(outside)+1)
	newRuns = append(newRuns, outside...)
	newRuns = append(newRuns, out)
	e.tabs.Store(&tables{active: cur.active, frozen: cur.frozen, runs: sortRunsNewestFirst(newRuns)})
	for _, r := range inputs {
		if r.path == path {
			continue // a single-run rewrite replaced its own file via the rename
		}
		if err := os.Remove(r.path); err != nil {
			e.recordErr(fmt.Errorf("sst: remove compacted run: %w", err))
		}
	}
	for _, r := range inputs {
		r.file.release()
	}
	e.metrics.add(func(m *Metrics) {
		m.compactions++
		m.compactionBytes += fileSize
	})
}

// mayHold reports whether any of runs may hold key in its file (Bloom
// filters: no false negatives).
func mayHold(runs []*run, key string) bool {
	for _, r := range runs {
		if r.filter.mayContain(key) {
			return true
		}
	}
	return false
}

func sortRunsNewestFirst(runs []*run) []*run {
	sort.Slice(runs, func(i, j int) bool { return runs[i].maxGen > runs[j].maxGen })
	return runs
}

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
	if tabs.frozen != nil {
		return res // only after a simulated-crash hook; never in production
	}
	if len(tabs.runs) == 0 {
		// Pure-memtable tiering: the striped store's own GC has identical
		// semantics and accounting. Whatever it leaves unsettled is in the
		// memtable, and the flush that retires it applies writeRun's rule.
		clear(e.pending)
		e.metrics.gcPending.Store(0)
		return tabs.active.GCStats(oldest)
	}

	n := len(tabs.runs)
	p := &gcPass{
		e: e, tabs: tabs, oldest: oldest, res: res,
		iters: make([]*runIterator, n), at: make([]bool, n),
		newCuts: make([]map[string]int, n), addCut: make([]int, n), addDead: make([]int, n),
	}
	for i, r := range tabs.runs {
		p.iters[i] = newRunIterator(e, r) // nil = retired: impossible under flushMu, but stay safe
	}
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
	for _, it := range p.iters {
		if it != nil {
			it.close()
		}
	}
	e.metrics.gcPending.Store(int64(len(e.pending)))
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

	iters []*runIterator // one per tabs.runs entry
	at    []bool         // iters[i] is positioned on the key being visited

	newCuts []map[string]int // nil = run unchanged
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
	live := make([]bool, len(p.iters))
	for i, it := range p.iters {
		live[i] = it != nil && it.next()
	}
	for {
		key := ""
		have := false
		if memLive {
			key, have = mem.Key(), true
		}
		for i, it := range p.iters {
			if live[i] && (!have || it.key < key) {
				key, have = it.key, true
			}
		}
		if !have {
			return
		}
		for i, it := range p.iters {
			p.at[i] = live[i] && it.key == key
		}
		p.visit(key)
		if memLive && mem.Key() == key {
			memLive = mem.Next()
		}
		for i, it := range p.iters {
			if p.at[i] {
				live[i] = it.next()
			}
		}
	}
}

// seekEach visits the given keys (ascending): each run's cursor jumps to
// the key's block, and a run whose filter rules the key out is not read.
func (p *gcPass) seekEach(keys []string) {
	for _, key := range keys {
		for i, it := range p.iters {
			p.at[i] = it != nil && it.r.filter.mayContain(key) && it.advanceTo(key) && it.key == key
		}
		p.visit(key)
	}
}

// cutFor is the overlay cut of key in run ri as this pass has it so far.
func (p *gcPass) cutFor(ri int, key string) int {
	if m := p.newCuts[ri]; m != nil {
		return m[key]
	}
	return p.tabs.runs[ri].cuts[key]
}

// visit makes the GC decision for one key — the runs holding it are the
// cursors marked in p.at — and files the key as pending or settled. It
// computes the global base (the newest version with UT ≤ oldest across all
// tiers), prunes the memtable and extends the runs' cuts below it.
func (p *gcPass) visit(key string) {
	e, active, oldest := p.e, p.tabs.active, p.oldest
	e.metrics.gcVisited.Add(1)
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
	for i, it := range p.iters {
		if !p.at[i] {
			continue
		}
		fileHasKey = true
		if cut := p.cutFor(i, key); cut < len(it.chain) {
			scan(it.chain[cut:])
			liveVersions += len(it.chain) - cut
		}
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
		for i, it := range p.iters {
			if !p.at[i] {
				continue
			}
			prior := p.cutFor(i, key)
			if prior >= len(it.chain) {
				continue // already fully cut
			}
			cut := store.ChainCut(it.chain[prior:], base, dropWhole)
			if cut == 0 {
				continue
			}
			if p.newCuts[i] == nil {
				r := p.tabs.runs[i]
				p.newCuts[i] = make(map[string]int, len(r.cuts)+1)
				for k, c := range r.cuts {
					p.newCuts[i][k] = c
				}
			}
			p.newCuts[i][key] = prior + cut
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
		if p.newCuts[ri] == nil {
			newRuns[ri] = r
			continue
		}
		changed = true
		nr := *r // shares the refcounted file; the overlay is replaced wholesale
		nr.cuts = p.newCuts[ri]
		nr.cutTotal = r.cutTotal + p.addCut[ri]
		nr.deadKeys = r.deadKeys + p.addDead[ri]
		newRuns[ri] = &nr
	}
	if changed {
		cur := p.e.tabs.Load()
		p.e.tabs.Store(&tables{active: cur.active, frozen: cur.frozen, runs: newRuns})
	}
}
