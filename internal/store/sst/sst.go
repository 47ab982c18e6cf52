// Package sst implements a memtable+sorted-run (LSM-style) storage
// engine behind store.Engine.
//
// Writes land in an active memtable — the same lock-striped version store
// the memory engine uses — and are covered by a write-ahead log that
// spans ONLY the active memtable: one file per flush generation,
// wal-<gen>.log, shared by every stripe and written in the shared logrec
// record format. A write locks the stripes its keys map to (ascending),
// appends all of its records with one write, inserts them into the
// memtable and unlocks. When the memtable grows past the flush threshold
// the next generation's file is created and the directory synced, with no
// stripe lock held; then the memtable is frozen (a fresh memtable and the
// new generation are swapped in under every stripe lock) and written out
// in the background as one immutable sorted run: keys in sorted order,
// each key's version chain newest first (descending last-writer-wins
// order), every record length-prefixed and CRC32-checksummed, grouped into
// fixed-size blocks with a fence-key footer (see runfile.go for the file
// format).
// Once the run is durable the log generations it covers are deleted — the
// log never grows past one memtable's worth of writes. The engine never
// fsyncs that log on its own: the owner calls Sync as a barrier, which
// is one fdatasync of one file, and Close syncs it. Run files are always
// fsynced before they count as durable. The stripe count is not part of
// the disk format: any Shards value reopens any directory.
//
// Two rules keep the log and the memtable one state:
//
//   - Every write MUST land wholly in one generation's log and that
//     generation's memtable: it holds the lock of every stripe it touches
//     from its append to its insert, and the freeze holds all of them.
//   - A failed append MUST roll the log back to its last intact offset, or
//     freeze it (fsutil.Tail); no record is ever appended behind a torn
//     one. A frozen log stays frozen, memory authoritative and Healthy
//     degraded, until the next flush rotates a fresh generation in.
//
// The resident state per run is a sparse index — one fence key per block
// plus a Bloom filter over the run's distinct keys — never the data. A
// point read probes the memtables, then per run answers negative lookups
// from the filter alone and positive ones with one binary search over the
// fences and one block of the run's mapping; startup reads each run's
// footer, not its data. Resident memory therefore scales with block count
// and key count, not with the bytes stored, which is what lets the engine
// hold datasets far larger than RAM. Snapshot reads stay lock-free on the
// immutable side (runs are published through one atomic pointer; a
// refcount on each run's mapping lets compaction retire files under
// concurrent readers), so the multi-version visibility scan that backs
// Wren's nonblocking reads touches no lock for flushed data — only the
// active-memtable probe takes its striped read lock. This maps the
// paper's stable-snapshot property onto storage: a snapshot read's
// versions live overwhelmingly in immutable runs, exactly because the
// snapshot is old enough to be stable.
//
// Run files are read in place. A sealed run is mapped once, read-only and
// shared (fsutil.MapFile), and every reader — point read, VersionsOf,
// Scan, GC pass, compaction — slices blocks out of that mapping instead of
// copying them into a buffer. The verification contract: a point probe
// checksums every record it walks — from its block's first record down the
// key's chain, newest first, to the first version it can decide on — and
// compaction, GC and Scan checksum every record. Two rules keep reading in
// place safe:
//
//   - A reader MUST hold a file reference (runFile.acquire, or a
//     runIterator) across the whole use of the mapped bytes, and no slice
//     into a mapping may outlive it; the last release unmaps. Everything
//     the engine returns is a copy (logrec.Decode copies key, value and
//     dependency vector). A visibility predicate sees a Version whose
//     Value aliases the mapping, and MUST NOT retain it.
//   - Every access to mapped bytes, frame headers included, MUST run under
//     readMapped, which sets debug.SetPanicOnFault and turns the SIGBUS of
//     a page the kernel cannot supply — an I/O error under it, or a file
//     truncated behind the engine — into a read error that degrades
//     Healthy, instead of killing the process.
//
// Runs are tiered into size levels (level = log_fanout(size/flushBytes))
// and background compaction merges gen-contiguous groups of runs within
// one level, so each compaction cycle's I/O is bounded by the size of one
// level rather than the whole dataset; GC prunes run data logically
// through per-run overlay cuts that compaction folds into the files. A
// whole-dataset (major) compaction still runs when pruned garbage piles
// up past the threshold, or on demand via Compact.
//
// Background work pays for what changed, not for what is stored. A GC
// pass visits the keys written since the last pass plus the pending set —
// the keys left unsettled: more than one live version across memtable and
// runs, or a lone tombstone — reading each run through a cursor that
// jumps fence to fence and skipping runs whose Bloom filter rules the key
// out; only the first pass after Open finds run files streams them all,
// because the overlay cuts are not persisted and must be rebuilt. The
// rules that keep the visit set complete are stated as MUST / MUST NOT on
// GCStats. A Scan takes no engine lock — it pins run files like a point
// read, so it never waits for a flush, a compaction or a GC pass — and
// walks the memtable through its ordered key index (store.KeysFrom), so
// stopping early costs the keys yielded, not the memtable's size. A
// flush's run writer and the streaming GC pass walk the same index; no
// path sorts memtable keys.
//
// Crash recovery keeps its invariants generalized to level merges: a
// run whose generation interval another run subsumes is the footprint of
// a crash mid-compaction and is deleted (merge groups are always
// gen-contiguous, so the merged output subsumes exactly its inputs),
// leftover temp files are removed, log generations a run covers are
// deleted, and the rest are replayed, one file per generation — streamed,
// never whole-file-buffered — truncating each one's torn tail
// (fsutil.OpenTail). A directory in the older per-stripe log layout
// (sst.meta, wal-<gen>-<stripe>.log) is refused: there is no migration.
// A power loss may undo whatever no sync covered (fsutil states the
// model), so three rules keep what a Sync did cover; TestPowerCutSweep
// cuts the power after every file operation of a seeded history to check
// them:
//
//   - A file MUST be synced before the rename that names it, and the
//     directory synced before a file it supersedes is removed: a run before
//     the log generations it covers, a compaction's output — even an empty
//     one — before its inputs.
//   - A log generation's directory entry MUST be synced before anything is
//     appended to it.
//   - Recovery MUST replay nothing but intact records, and what it leaves
//     MUST reopen to the same state (a cut or removal a power loss undoes,
//     the next recovery redoes).
package sst

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"wren/internal/hlc"
	"wren/internal/obs"
	"wren/internal/store"
	"wren/internal/store/fsutil"
	"wren/internal/store/logrec"
	"wren/internal/wire"
)

const (
	// DefaultFlushBytes is the approximate memtable payload size that
	// triggers a background flush to a sorted run.
	DefaultFlushBytes = 4 << 20
	// DefaultCompactRuns is how many sorted runs may accumulate within one
	// size level before a compaction merges them.
	DefaultCompactRuns = 4
	// DefaultCompactGarbage is how many GC-pruned versions may linger in
	// run files before a major compaction rewrites them out.
	DefaultCompactGarbage = 4096
	// DefaultBlockBytes is the target size of one run-file block — what a
	// point lookup walks and the granularity of the resident fence index.
	// A probe CRC-checks every record before the key's chain in its block,
	// then walks the chain newest first only as far as its first visible
	// version, so the block is sized to what a probe should walk: swept
	// over 16, 8, 4 and 2 KiB, 4 KiB (three 1 KiB records) read fastest on
	// the benchmark's larger-than-memtable workload and no slower on its
	// durable-commit one, at four times 16 KiB's fences.
	DefaultBlockBytes = 4 << 10
	// DefaultLevelFanout is the size ratio between adjacent run levels.
	DefaultLevelFanout = 4

	// versionOverhead approximates the per-version bookkeeping bytes used
	// when sizing the memtable for the flush trigger.
	versionOverhead = 64
)

// Options configures an SST engine.
type Options struct {
	// Dir is the data directory (log generations, run files, lock).
	// Created if missing. One engine must own it exclusively.
	Dir string
	// Shards is the memtable stripe count (0 selects store.DefaultShards;
	// rounded up to a power of two). It is not persisted: no file is per
	// stripe, so a directory reopens under any count.
	Shards int
	// FlushBytes overrides the memtable size that triggers a background
	// flush (0 selects DefaultFlushBytes; negative disables auto-flush —
	// Flush can still be called explicitly). It is also the base of the
	// run-level size ladder.
	FlushBytes int64
	// CompactRuns overrides how many runs within one size level trigger a
	// compaction of that level (0 selects DefaultCompactRuns; negative
	// disables compaction).
	CompactRuns int
	// CompactGarbage overrides how many GC-pruned versions lingering in
	// run files trigger a major compaction (0 selects
	// DefaultCompactGarbage).
	CompactGarbage int
	// BlockBytes overrides the target run-file block size (0 selects
	// DefaultBlockBytes, 4 KiB). Smaller blocks mean fewer records ahead of
	// a key's chain — each checksummed by a point read that walks past it —
	// and a proportionally larger fence index;
	// servers always take the default, and tests force tiny blocks here.
	BlockBytes int
	// LevelFanout overrides the size ratio between adjacent run levels
	// (0 selects DefaultLevelFanout; minimum 2).
	LevelFanout int
}

// run is one immutable sorted run: a durable file plus the sparse
// resident index serving lock-free reads — fence keys (one per block), a
// Bloom filter over its distinct keys, and counters. It covers a
// contiguous range of WAL generations and sits in a size level. Nothing
// here is mutated after construction; GC publishes replacement run
// structs wholesale (sharing the same refcounted file).
//
// live is the GC overlay: for each pruned key, how many of its file
// versions are still live — the newest ones, which the file stores first,
// so a probe stops after that many records and the cut versions are the
// chain's tail. Cutting the oldest versions is sound because GC only ever
// removes versions older than the surviving base. Readers of ascending
// chains (runIterator) convert the count into a leading cut with cutOf. A
// key whose whole chain is cut (live 0) stays in the FILE until compaction
// rewrites it — the file key set is exactly what recovery would reload,
// the set GC must consult before letting a tombstone leave the memtable.
type run struct {
	file           *runFile
	path           string
	minGen, maxGen uint64
	level          int
	fileSize       int64 // whole file, footer included
	dataSize       int64 // data region only (sum of block lengths)

	fences   []fence
	filter   bloomFilter
	versions int // version records in the FILE
	keyCount int // distinct keys in the FILE

	live     map[string]int // pruned key -> newest file versions still live
	cutTotal int            // garbage versions in the file (chain lengths minus live)
	deadKeys int            // keys whose whole chain is cut
}

// liveVersions is the number of versions reads can still observe.
func (r *run) liveVersions() int { return r.versions - r.cutTotal }

// cutOf converts a GC overlay's live count for key into how many of the n
// versions of its ascending file chain, oldest first, are dead. A chain a
// corrupt record cut short holds only its newest n versions, which may all
// be live: the cut is never negative.
func cutOf(live map[string]int, key string, n int) int {
	if l, ok := live[key]; ok {
		return max(n-l, 0)
	}
	return 0
}

// tables is the read snapshot: one atomic pointer swap publishes any
// change to the source set, so readers always see a consistent tiering.
// frozen is non-nil only while a flush is writing its run.
type tables struct {
	active *store.Store
	frozen *store.Store
	runs   []*run // newest first (descending maxGen)
}

// Engine is the memtable+sorted-run storage engine.
type Engine struct {
	fs             fsutil.FS // every file operation; tests pass crashfs (see open)
	dir            string
	flushBytes     int64
	compactRuns    int
	compactGarbage int
	blockBytes     int
	levelFanout    int
	mask           uint32
	nShards        int

	tabs    atomic.Pointer[tables]
	stripes []stripe // one write lock and record buffer per memtable stripe
	// log is the active generation's log. The freeze writes it under
	// syncMu and every stripe lock; a write reads it under its stripe
	// locks, Sync under syncMu.
	log *genLog

	// flushMu serializes every structural change to the tiering — flush,
	// compaction, GC, recovery-time setup, run retirement — and the
	// counting methods that need a non-overlapping view. The read and
	// write hot paths never take it.
	flushMu sync.Mutex
	gen     uint64 // active log generation (flushMu; written under all stripe locks)
	minGen  uint64 // lowest generation whose data lives only in the memtable (flushMu)

	// syncMu serializes Sync with itself — a caller whose dirty log an
	// earlier Sync already took must not return before that Sync's fsync
	// has — and with the freeze step of a flush (lock order: syncMu, then
	// stripe locks, then log.mu), which holds it until the generation it
	// rotated out is stable.
	syncMu sync.Mutex

	// What the next GC pass must look at (see GCStats). written[i] lists
	// the keys written through stripe i to the ACTIVE memtable since the
	// last pass — appended under stripes[i].mu, handed to the pass by
	// drainWritten, discarded by the freeze of a flush, whose writeRun
	// decides per flushed key instead. pending holds the keys a later,
	// higher floor could still prune. gcStream forces the one pass that
	// cannot be incremental: the first after Open found run files (the
	// overlay cuts are not persisted) and the one after a failed flush.
	written  [][]string
	pending  map[string]struct{} // flushMu
	gcStream bool                // flushMu

	memBytes atomic.Int64 // approximate active-memtable payload size
	flushing atomic.Bool  // a background flush is scheduled or running

	lock io.Closer // exclusive advisory lock on the data directory

	mu     sync.Mutex // guards err, closed, reg
	err    error      // first write-path failure, surfaced by Healthy/Close
	closed bool
	wg     sync.WaitGroup // background flushes and compactions
	reg    *obs.Registry  // the owner's, from Observe; nil until then

	// Counters, registered by Observe. recordsChecked counts run records
	// point probes CRC-checked, in a block up to and down a key's chain;
	// syncs counts log
	// fsyncs (one per Sync that found unsynced appends, one per flush that
	// rotated some out, one at Close), logWrites one per Put and per
	// PutBatch; gcVisited counts keys GC passes examined, which must
	// follow what was written, not what is stored, and the gauge gcPending
	// the keys the last pass or flush left for a later floor to prune.
	flushes, compactions, compactionBytes, recovered, truncated, runsLoaded obs.Counter
	blockReads, recordsChecked, bloomSkips, syncs, logWrites, gcVisited     obs.Counter
	gcPending                                                               atomic.Int64
}

// Metrics is the view of the engine's counters the benchmark reads. The
// owning server's registry has them all (see Observe).
type Metrics struct{ e *Engine }

// BlockReads returns how many run-file blocks reads have touched.
func (m Metrics) BlockReads() int64 { return int64(m.e.blockReads.Load()) }

// BloomSkips returns how many run probes the Bloom filters answered
// negatively without touching disk.
func (m Metrics) BloomSkips() int64 { return int64(m.e.bloomSkips.Load()) }

// Flushes returns how many memtable flushes have written a run.
func (m Metrics) Flushes() int { return int(m.e.flushes.Load()) }

// Compactions returns how many merge compactions have run.
func (m Metrics) Compactions() int { return int(m.e.compactions.Load()) }

var _ store.Engine = (*Engine)(nil)

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
	levelFanout := opts.LevelFanout
	if levelFanout == 0 {
		levelFanout = DefaultLevelFanout
	}
	if levelFanout < 2 {
		levelFanout = 2
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
		levelFanout:    levelFanout,
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

// levelOf places a run of the given file size on the size ladder: level 0
// holds runs up to flushBytes*fanout, each level above holds runs up to
// fanout times its predecessor.
func (e *Engine) levelOf(size int64) int {
	base := e.flushBytes
	if base <= 0 {
		base = DefaultFlushBytes
	}
	level := 0
	threshold := base * int64(e.levelFanout)
	for size >= threshold && level < 32 {
		next := threshold * int64(e.levelFanout)
		if next <= threshold { // overflow: everything else is the top level
			break
		}
		threshold = next
		level++
	}
	return level
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

// writeSize approximates the memtable footprint of one version for the
// flush trigger.
func writeSize(key string, v *store.Version) int64 {
	return int64(len(key)+len(v.Value)) + versionOverhead
}

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

// ReadVisible implements store.Engine: the freshest visible version
// across the active memtable, the frozen memtable (if a flush is in
// progress) and every immutable run. Runs are probed without any lock —
// a Bloom-filter check, then at most one block of the mapping each.
func (e *Engine) ReadVisible(key string, visible store.VisibleFunc) *store.Version {
	tabs := e.tabs.Load()
	v := tabs.active.ReadVisible(key, visible)
	if tabs.frozen == nil && len(tabs.runs) == 0 {
		return v
	}
	sc := probePool.Get().(*probeScratch)
	v = e.mergeDisk(tabs, key, visible, v, sc)
	probePool.Put(sc)
	return v
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
// run entirely in pooled scratch and only materialize a version when the
// run strictly wins the last-writer-wins fold.
func (e *Engine) ReadVisibleBatchInto(keys []string, visible store.VisibleFunc, out []*store.Version) []*store.Version {
	tabs := e.tabs.Load()
	out = tabs.active.ReadVisibleBatchInto(keys, visible, out)
	if tabs.frozen == nil && len(tabs.runs) == 0 {
		return out
	}
	sc := probePool.Get().(*probeScratch)
	for j, k := range keys {
		out[j] = e.mergeDisk(tabs, k, visible, out[j], sc)
	}
	probePool.Put(sc)
	return out
}

// Latest implements store.Engine.
func (e *Engine) Latest(key string) *store.Version {
	tabs := e.tabs.Load()
	v := tabs.active.Latest(key)
	if tabs.frozen == nil && len(tabs.runs) == 0 {
		return v
	}
	sc := probePool.Get().(*probeScratch)
	v = e.mergeDisk(tabs, key, alwaysVisible, v, sc)
	probePool.Put(sc)
	return v
}

// GC implements store.Engine.
func (e *Engine) GC(oldest hlc.Timestamp) int { return e.GCStats(oldest).Removed }

// keySet collects the distinct live keys across every tier under flushMu:
// memtable keys plus a streaming pass over each run file, skipping keys
// whose whole chain the GC overlay cut.
func (e *Engine) keySet() map[string]struct{} {
	tabs := e.tabs.Load()
	seen := make(map[string]struct{})
	collect := func(k string) { seen[k] = struct{}{} }
	tabs.active.ForEachKey(collect)
	if tabs.frozen != nil {
		tabs.frozen.ForEachKey(collect)
	}
	for _, r := range tabs.runs {
		it := newRunIterator(e, r)
		if it == nil {
			continue // retired: impossible under flushMu, but stay safe
		}
		for it.next() {
			if n, ok := r.live[it.key]; ok && n == 0 {
				continue
			}
			seen[it.key] = struct{}{}
		}
		it.close()
	}
	return seen
}

// Keys implements store.Engine: the number of distinct keys across every
// tier (a key flushed to a run and rewritten since counts once). With
// runs present this streams the run files — it is a counting method, not
// a hot path.
func (e *Engine) Keys() int {
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	tabs := e.tabs.Load()
	if tabs.frozen == nil && len(tabs.runs) == 0 {
		return tabs.active.Keys()
	}
	return len(e.keySet())
}

// Versions implements store.Engine. Every version lives in exactly one
// tier, so the tier totals sum without deduplication; run totals come
// from the resident counters, never from disk.
func (e *Engine) Versions() int {
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	tabs := e.tabs.Load()
	n := tabs.active.Versions()
	if tabs.frozen != nil {
		n += tabs.frozen.Versions()
	}
	for _, r := range tabs.runs {
		n += r.liveVersions()
	}
	return n
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

// NumShards implements store.Engine.
func (e *Engine) NumShards() int { return e.nShards }

// ForEachKey implements store.Engine: each distinct key is yielded once.
// The deduplicated key list is snapshotted first, so fn runs without any
// engine lock held and may call back into the engine.
func (e *Engine) ForEachKey(fn func(key string)) {
	e.flushMu.Lock()
	seen := e.keySet()
	e.flushMu.Unlock()
	for k := range seen {
		fn(k)
	}
}

// Scan implements store.Engine: a streaming merge of the memtables and
// every run file over [start, end), in ascending key order. It takes no
// engine lock — a scan never waits for a flush, a compaction or a GC pass.
// Run files are pinned the way point reads pin them (pinRuns) and read
// block-at-a-time; memtable keys come off the memtable's ordered key index
// (store.KeysFrom), so a scan that stops early pays for the keys it
// yielded, not for the memtable's size. Each yielded version is a
// materialized copy — fn may retain it.
func (e *Engine) Scan(start, end string, visible store.VisibleFunc, fn func(key string, v *store.Version) bool) error {
	tabs, iters := e.pinRuns()
	defer func() {
		for _, it := range iters {
			it.close()
		}
	}()

	before := func(k string) bool { return end == "" || k < end }
	mem := tabs.active.KeysFrom(start)
	memLive := mem.Next() && before(mem.Key())
	var frozen *store.KeyIter
	frozenLive := false
	if tabs.frozen != nil {
		frozen = tabs.frozen.KeysFrom(start)
		frozenLive = frozen.Next() && before(frozen.Key())
	}
	live := make([]bool, len(iters))
	for i, it := range iters {
		live[i] = it.advanceTo(start) && before(it.key)
	}

	for {
		key := ""
		have := false
		if memLive {
			key, have = mem.Key(), true
		}
		if frozenLive && (!have || frozen.Key() < key) {
			key, have = frozen.Key(), true
		}
		for i, it := range iters {
			if live[i] && (!have || it.key < key) {
				key, have = it.key, true
			}
		}
		if !have {
			break
		}
		var v *store.Version
		if memLive && mem.Key() == key {
			v = best(v, tabs.active.ReadVisible(key, visible))
			memLive = mem.Next() && before(mem.Key())
		}
		if frozenLive && frozen.Key() == key {
			v = best(v, tabs.frozen.ReadVisible(key, visible))
			frozenLive = frozen.Next() && before(frozen.Key())
		}
		for i, it := range iters {
			if !live[i] || it.key != key {
				continue
			}
			if cut := cutOf(it.r.live, key, len(it.chain)); cut < len(it.chain) {
				v = best(v, store.ReadVisibleChain(it.chain[cut:], visible))
			}
			live[i] = it.next() && before(it.key)
		}
		if v != nil && v.Value != nil {
			if !fn(key, v) {
				return nil
			}
		}
	}
	for _, it := range iters {
		if it.err != nil {
			return it.err
		}
	}
	return nil
}

// pinRuns loads the current tables and takes a file reference on every
// run in them, so a compaction may retire the runs mid-scan but cannot
// close them. A run already retired and released means newer tables were
// published before its release: drop what was taken, reload and retry.
func (e *Engine) pinRuns() (*tables, []*runIterator) {
	for {
		tabs := e.tabs.Load()
		iters := make([]*runIterator, 0, len(tabs.runs))
		for _, r := range tabs.runs {
			it := newRunIterator(e, r)
			if it == nil {
				break
			}
			iters = append(iters, it)
		}
		if len(iters) == len(tabs.runs) {
			return tabs, iters
		}
		for _, it := range iters {
			it.close()
		}
	}
}

// InjectFailure records err as a write-path failure, flipping Healthy.
// Test-only, like txlog.InjectFailure: it lets the lifecycle tests
// exercise a failed engine barrier without arranging a real I/O error.
func (e *Engine) InjectFailure(err error) { e.recordErr(err) }

// Healthy implements store.Engine: it returns the first log append/sync,
// flush or compaction failure the engine has recorded, or nil while the
// write path is fully intact. The engine keeps serving from memory after
// a failure, so this signal is how servers and benchmarks detect a
// silently degraded log.
func (e *Engine) Healthy() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Metrics returns the benchmark's view of the engine's counters.
func (e *Engine) Metrics() Metrics { return Metrics{e} }

// Observe registers the engine's counters in the owning server's registry
// and names its events after that server.
func (e *Engine) Observe(reg *obs.Registry) {
	for name, c := range map[string]*obs.Counter{
		"flushes": &e.flushes, "compactions": &e.compactions, "compaction_bytes": &e.compactionBytes,
		"recovered": &e.recovered, "truncated_logs": &e.truncated, "runs_loaded": &e.runsLoaded,
		"block_reads": &e.blockReads, "records_checked": &e.recordsChecked, "bloom_skips": &e.bloomSkips,
		"syncs": &e.syncs, "log_writes": &e.logWrites, "gc_visited": &e.gcVisited,
	} {
		reg.Func("sst."+name, c.Load)
	}
	reg.Func("sst.gc_pending", func() uint64 { return uint64(e.gcPending.Load()) })
	e.mu.Lock()
	e.reg = reg
	e.mu.Unlock()
}

// Runs returns the number of live sorted runs (for tests and monitoring).
func (e *Engine) Runs() int {
	return len(e.tabs.Load().runs)
}

// Levels returns the number of occupied size levels (the deepest run's
// level plus one), 0 with no runs.
func (e *Engine) Levels() int {
	n := 0
	for _, r := range e.tabs.Load().runs {
		if r.level+1 > n {
			n = r.level + 1
		}
	}
	return n
}

// ResidentIndexBytes estimates the memory the run index keeps resident:
// fence keys, Bloom filter bits and GC overlay entries. This is the
// number that must stay far below the stored data size — the engine's
// claim to handling datasets larger than RAM.
func (e *Engine) ResidentIndexBytes() int64 {
	var n int64
	for _, r := range e.tabs.Load().runs {
		for _, fe := range r.fences {
			n += int64(len(fe.firstKey)) + 24 // string header + offset + length
		}
		n += r.filter.sizeBytes()
		for k := range r.live {
			n += int64(len(k)) + 32 // map entry estimate
		}
	}
	return n
}

// recordErr remembers the first write-path failure, logging the
// "sst.degraded" event right away — an operator must learn that durability
// degraded when it happens, not at Close. The in-memory tiers stay
// authoritative for reads either way; Healthy surfaces the error while the
// engine runs.
func (e *Engine) recordErr(err error) {
	if err == nil {
		return
	}
	e.mu.Lock()
	first := e.err == nil
	if first {
		e.err = err
	}
	reg := e.reg
	e.mu.Unlock()
	if first {
		reg.Event("sst.degraded", "err", err, "dir", e.dir)
	}
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
