package sst

import (
	"fmt"
	"os"

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
		if err := e.fs.Remove(e.walPath(g)); err != nil && !os.IsNotExist(err) {
			e.recordErr(fmt.Errorf("sst: remove superseded wal: %w", err))
		}
	}
	e.flushes.Inc()
	e.maybeCompactLocked()
	return nil
}

// createLog creates generation gen's log file, empty, and syncs the
// directory so its entry survives a power loss. Caller holds flushMu.
func (e *Engine) createLog(gen uint64) (*genLog, error) {
	f, err := e.fs.OpenFile(e.walPath(gen), os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if err := e.fs.SyncDir(e.dir); err != nil {
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
	w, err := newRunWriter(e.fs, e.runPath(minGen, maxGen), e.blockBytes, frozen.Keys())
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
	e.gcPending.Store(int64(len(e.pending)))
	return e.seal(w, minGen, maxGen)
}

// seal is the one step that makes a written run file a run readers may be
// handed, for a flush and a compaction alike: the writer fsyncs the file
// and renames it into place, the directory is synced so the rename
// survives a power loss, and only then is the file mapped and placed on
// the level ladder. What the run supersedes — log generations, compacted
// inputs — may be removed once seal returns, not before.
func (e *Engine) seal(w *runWriter, minGen, maxGen uint64) (*run, error) {
	fileSize, err := w.finish()
	if err != nil {
		return nil, err
	}
	if err := e.fs.SyncDir(e.dir); err != nil {
		return nil, fmt.Errorf("sst: sync dir: %w", err)
	}
	r, err := w.intoRun(minGen, maxGen, fileSize)
	if err != nil {
		return nil, err
	}
	r.level = e.levelOf(fileSize)
	return r, nil
}
