package sst

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"wren/internal/store"
	"wren/internal/store/fsutil"
	"wren/internal/store/logrec"
	"wren/internal/wire"
)

// Open creates or recovers an SST engine in opts.Dir: leftover temp files
// are removed, run footers are loaded (dropping any run whose generation
// interval a wider merged run subsumes — the footprint of a crash
// mid-compaction), log generations a run already covers are deleted, and
// the rest are replayed into a fresh memtable, truncating a torn tail.
// Startup heap is bounded by record and footer sizes, not file sizes:
// run data is never read at open, and WAL replay is streamed.
func Open(opts Options) (*Engine, error) { return open(opts, fsutil.OS) }

// open is Open over fsys, which tests set to a crashfs.
func open(opts Options, fsys fsutil.FS) (*Engine, error) {
	flushBytes := opts.FlushBytes
	if flushBytes == 0 {
		flushBytes = DefaultFlushBytes
	}
	compactRuns := opts.CompactRuns
	if compactRuns == 0 {
		compactRuns = DefaultCompactRuns
	}
	compactGarbage := opts.CompactGarbage
	if compactGarbage == 0 {
		compactGarbage = DefaultCompactGarbage
	}
	blockBytes := opts.BlockBytes
	if blockBytes <= 0 {
		blockBytes = DefaultBlockBytes
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("sst: create dir: %w", err)
	}
	lock, err := fsutil.ClaimDir(fsys, opts.Dir, "sst")
	if err != nil {
		return nil, fmt.Errorf("sst: %w", err)
	}

	n := store.ResolveShards(opts.Shards)
	e := &Engine{
		fs:             fsys,
		dir:            opts.Dir,
		flushBytes:     flushBytes,
		compactRuns:    compactRuns,
		compactGarbage: compactGarbage,
		blockBytes:     blockBytes,
		mask:           uint32(n - 1),
		nShards:        n,
		lock:           lock,
		stripes:        make([]stripe, n),
		written:        make([][]string, n),
		pending:        make(map[string]struct{}),
	}
	for si := range e.stripes {
		e.stripes[si].enc = wire.NewEncoder()
	}
	if err := e.recover(); err != nil {
		if e.log != nil {
			_ = e.log.F.Close()
		}
		_ = lock.Close()
		return nil, err
	}
	// One directory sync covers every temp-file removal, superseded-log
	// deletion and log creation above.
	if err := fsys.SyncDir(opts.Dir); err != nil {
		_ = e.Close()
		return nil, fmt.Errorf("sst: sync dir: %w", err)
	}
	return e, nil
}

func (e *Engine) walPath(gen uint64) string {
	return filepath.Join(e.dir, fmt.Sprintf("wal-%06d.log", gen))
}

func (e *Engine) runPath(minGen, maxGen uint64) string {
	return filepath.Join(e.dir, fmt.Sprintf("run-%06d-%06d.sst", minGen, maxGen))
}

// recover rebuilds the engine state from the data directory. Generations
// start at 1, so a fresh directory begins with log generation 1 and no
// runs.
func (e *Engine) recover() (retErr error) {
	entries, err := e.fs.ReadDir(e.dir)
	if err != nil {
		return fmt.Errorf("sst: read dir: %w", err)
	}
	type runRef struct {
		path   string
		lo, hi uint64
	}
	var runFiles []runRef
	var tmps []string
	var logGens []uint64
	for _, ent := range entries {
		name := ent.Name()
		switch {
		case name == "sst.meta" || isPerStripeLog(name):
			return fmt.Errorf("sst: %s holds %s, a file of the per-stripe log layout: "+
				"the engine keeps one wal-<gen>.log per generation and no sst.meta, and reads no older layout", e.dir, name)
		case strings.HasSuffix(name, ".tmp"):
			// A crash mid-flush or mid-compaction: the rename never
			// happened, so the file holds nothing durable.
			tmps = append(tmps, name)
		case strings.HasSuffix(name, ".sst"):
			var lo, hi uint64
			if _, err := fmt.Sscanf(name, "run-%d-%d.sst", &lo, &hi); err != nil || lo == 0 || hi < lo {
				return fmt.Errorf("sst: unrecognized run file %s", name)
			}
			runFiles = append(runFiles, runRef{path: filepath.Join(e.dir, name), lo: lo, hi: hi})
		case strings.HasSuffix(name, ".log"):
			var g uint64
			if _, err := fmt.Sscanf(name, "wal-%d.log", &g); err != nil || g == 0 {
				return fmt.Errorf("sst: unrecognized wal file %s", name)
			}
			logGens = append(logGens, g)
		}
	}
	for _, name := range tmps {
		if err := e.fs.Remove(filepath.Join(e.dir, name)); err != nil {
			return fmt.Errorf("sst: remove leftover %s: %w", name, err)
		}
	}

	// Drop runs whose generation interval a wider (merged) run subsumes:
	// the footprint of a crash after a compaction rename but before the
	// old files were deleted. Compaction only ever merges gen-contiguous
	// groups, so the merged output's interval covers exactly its inputs —
	// a subsumed file is always a superseded input, never an innocent
	// bystander between two merged neighbours.
	refs := runFiles[:0]
	for _, r := range runFiles {
		subsumed := false
		for _, o := range runFiles {
			if o != r && o.lo <= r.lo && r.hi <= o.hi {
				subsumed = true
				break
			}
		}
		if subsumed {
			if err := e.fs.Remove(r.path); err != nil {
				return fmt.Errorf("sst: remove subsumed run %s: %w", r.path, err)
			}
			continue
		}
		refs = append(refs, r)
	}
	// Load surviving run indexes (footer only), newest first.
	sort.Slice(refs, func(i, j int) bool { return refs[i].hi > refs[j].hi })
	var runs []*run
	defer func() {
		if retErr != nil {
			for _, r := range runs {
				r.file.release()
			}
		}
	}()
	var maxCovered uint64
	for _, ref := range refs {
		r, err := loadRun(ref.path, ref.lo, ref.hi)
		if err != nil {
			return err
		}
		r.level = e.levelOf(r.fileSize)
		runs = append(runs, r)
		if r.maxGen > maxCovered {
			maxCovered = r.maxGen
		}
		e.runsLoaded.Inc()
	}

	// Log generations a run covers are superseded; delete them. The rest
	// are replayed, oldest generation first; the newest is the active one,
	// created if no generation is left.
	var gens []uint64
	for _, g := range logGens {
		if g <= maxCovered {
			if err := e.fs.Remove(e.walPath(g)); err != nil {
				return fmt.Errorf("sst: remove superseded wal: %w", err)
			}
			continue
		}
		gens = append(gens, g)
	}
	slices.Sort(gens)
	if len(gens) == 0 {
		gens = []uint64{maxCovered + 1}
	}
	activeGen := gens[len(gens)-1]

	mem := store.NewSharded(e.nShards)
	var memBytes int64
	// Replay is streamed and batched: records flow through a bounded KV
	// buffer into the memtable, so recovery heap tracks the memtable the
	// log describes, never the log file size.
	var kvs []store.KV
	drain := func() {
		mem.PutBatch(kvs)
		kvs = kvs[:0]
	}
	replay := func(key string, v *store.Version) {
		kvs = append(kvs, store.KV{Key: key, Version: v})
		memBytes += writeSize(key, v)
		e.recovered.Inc()
		if len(kvs) >= 1024 {
			drain()
		}
	}
	// Every generation is recovered like the active one, torn tail cut;
	// only the newest is kept open for appends. An older one — a frozen
	// generation whose flush never completed, or the one before an empty
	// newest generation (a crash between a flush's log creation and its
	// freeze) — is closed, and the next flush's run covers it.
	for _, g := range gens {
		t, torn, err := fsutil.OpenTail(e.fs, e.walPath(g), func(r io.Reader) int64 {
			return logrec.ScanReader(r, replay)
		})
		drain()
		if err != nil {
			return fmt.Errorf("sst: %w", err)
		}
		if torn {
			e.truncated.Inc()
		}
		if g != activeGen {
			_ = t.F.Close()
			continue
		}
		e.log = &genLog{Tail: t}
	}

	e.gen = activeGen
	e.minGen = gens[0]
	e.memBytes.Store(memBytes)
	e.gcStream = len(runs) > 0
	e.tabs.Store(&tables{active: mem, runs: runs})
	return nil
}

// isPerStripeLog reports whether name is a log file of the per-stripe
// layout, wal-<gen>-<stripe>.log.
func isPerStripeLog(name string) bool {
	var g uint64
	var si int
	n, _ := fmt.Sscanf(name, "wal-%d-%d.log", &g, &si)
	return n == 2
}

// Close implements store.Engine: it waits out the background work, forces
// the active log generation to stable storage with one fdatasync (a clean
// shutdown is always fully durable), closes the files, unmaps the
// runs — released through their refcounts, so a straggling read finishes
// first — and returns the first error the write path hit.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		err := e.err
		e.mu.Unlock()
		return err
	}
	e.closed = true
	e.mu.Unlock()

	e.wg.Wait()
	e.syncMu.Lock()
	l := e.log
	l.mu.Lock()
	e.syncLog(l.F)
	if err := l.F.Close(); err != nil {
		e.recordErr(fmt.Errorf("sst: close: %w", err))
	}
	l.dirty = false
	l.mu.Unlock()
	e.syncMu.Unlock()
	if tabs := e.tabs.Load(); tabs != nil {
		for _, r := range tabs.runs {
			r.file.release() // drops the table reference taken at creation
		}
	}
	_ = e.lock.Close() // releases the directory lock
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}
