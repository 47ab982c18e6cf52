package sst

import (
	"cmp"
	"fmt"
	"slices"

	"wren/internal/store"
)

// levelFanout is the size ratio between adjacent run levels.
const levelFanout = 4

// levelOf places a run of the given file size on the size ladder: level 0
// holds runs up to flushBytes*levelFanout, each level above holds runs up
// to levelFanout times its predecessor.
func (e *Engine) levelOf(size int64) int {
	base := e.flushBytes
	if base <= 0 {
		base = DefaultFlushBytes
	}
	level := 0
	threshold := base * levelFanout
	for size >= threshold && level < 32 {
		next := threshold * levelFanout
		if next <= threshold { // overflow: everything else is the top level
			break
		}
		threshold = next
		level++
	}
	return level
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
	var outside []*run
	for _, r := range e.tabs.Load().runs {
		if !slices.Contains(inputs, r) {
			outside = append(outside, r)
		}
	}
	minGen, maxGen := inputs[0].minGen, inputs[0].maxGen
	expectKeys := 1
	for _, r := range inputs {
		minGen, maxGen = min(minGen, r.minGen), max(maxGen, r.maxGen)
		expectKeys += r.keyCount - r.deadKeys
	}
	path := e.runPath(minGen, maxGen)
	w, err := newRunWriter(e.fs, path, e.blockBytes, expectKeys)
	if err != nil {
		e.recordErr(err)
		return
	}

	cs, ok := openCursors(e, inputs, "")
	if !ok { // retired: impossible under flushMu, but stay safe
		cs.close()
		w.abort()
		return
	}
	cs.seek("")
	outLive := make(map[string]int) // kept tombstones: in the file, none live
	var merged []*store.Version
	// The chains' values alias the input mappings: addChain reads them, so
	// the merge runs under readMapped, and a fault aborts it like a corrupt
	// record.
	fault := readMapped(func() {
		for {
			key, have := cs.least("", false)
			if !have {
				return
			}
			merged = merged[:0]
			var lastFull *store.Version
			chains := 0
			for i, it := range cs.its {
				if !cs.at[i] {
					continue
				}
				full := it.chain
				if t := full[len(full)-1]; lastFull == nil || lastFull.Less(t) {
					lastFull = t
				}
				if cut := cutOf(inputs[i].live, key, len(full)); cut < len(full) {
					merged = append(merged, full[cut:]...)
					chains++
				}
			}
			if chains > 1 { // one chain is already in order
				slices.SortFunc(merged, func(a, b *store.Version) int {
					if a.Less(b) {
						return -1
					}
					if b.Less(a) {
						return 1
					}
					return 0
				})
			}
			if len(merged) > 0 {
				w.addChain(key, merged)
			} else if lastFull.Value == nil && mayHold(outside, key) {
				w.addChain(key, append(merged, lastFull))
				outLive[key] = 0
			}
			cs.advance()
		}
	})
	if fault != nil {
		e.recordErr(fmt.Errorf("sst: compaction: read run: %w", fault))
	}
	iterErr := cs.err()
	cs.close()
	if fault != nil || iterErr != nil {
		w.abort() // a cursor failure is already recorded for Healthy
		return
	}

	// The output is written even when every chain was cut (an empty run):
	// it is what retires the inputs at recovery when a power loss undoes
	// some of their removals, and a remaining input could hold a value
	// whose tombstone went with a removed one.
	out, err := e.seal(w, minGen, maxGen)
	if err != nil {
		e.recordErr(err)
		return
	}
	if len(outLive) > 0 {
		out.live = outLive
		out.cutTotal = len(outLive)
		out.deadKeys = len(outLive)
	}

	// outside is this merge's own slice; the tables list runs newest first.
	runs := append(outside, out)
	slices.SortFunc(runs, func(a, b *run) int { return cmp.Compare(b.maxGen, a.maxGen) })
	e.tabs.Store(&tables{active: e.tabs.Load().active, runs: runs})
	for _, r := range inputs {
		if r.path == path {
			continue // a single-run rewrite replaced its own file via the rename
		}
		if err := e.fs.Remove(r.path); err != nil {
			e.recordErr(fmt.Errorf("sst: remove compacted run: %w", err))
		}
	}
	for _, r := range inputs {
		r.file.release()
	}
	e.compactions.Inc()
	e.compactionBytes.Add(uint64(out.fileSize))
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
