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
// # Files
//
//   - sst.go: the options, the Engine, its counters and counting methods.
//   - open.go: Open, recovery from the data directory, and Close.
//   - log.go: the write path: the generation log, Put, PutBatch, Sync.
//   - flush.go: Flush, and seal, the one step that makes a written run
//     file a readable run.
//   - compact.go: the size levels and compaction.
//   - gc.go: version GC, incremental and streaming, and the overlay cuts.
//   - read.go: the point-read path and its block probe.
//   - scan.go: Scan, the run iterator, and cursorSet, the one k-way merge
//     of run files that Scan, compaction and the streaming GC pass share.
//   - runfile.go: the run file format: writer, footer, mapped file.
//   - bloom.go: the per-run Bloom filter.
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
//     the engine returns is a copy. A visibility predicate sees a Version
//     whose Value aliases the mapping, and MUST NOT retain it.
//   - Every access to mapped bytes, frame headers included, MUST run under
//     readMapped, which sets debug.SetPanicOnFault and turns the SIGBUS of
//     a page the kernel cannot supply — an I/O error under it, or a file
//     truncated behind the engine — into a read error that degrades
//     Healthy, instead of killing the process.
//   - A run iterator's chain aliases the mapping: its versions live in a
//     slab the next step reuses and its values are slices of the mapping.
//     A chain's values MUST be read only under readMapped (compaction
//     merges and re-encodes under it), and a chain MUST NOT leave the
//     engine or outlive the step that produced it: Scan copies the
//     version it yields, under readMapped, before its cursors move, and
//     the GC pass reads only timestamps and whether Value is nil.
//
// Who owns decoded bytes follows from that. A stored write owns its
// bytes (the memtable keeps what Put was given). A read result shares one
// allocation per call: the run versions one ReadVisibleBatchInto,
// ReadVisible or Latest call returns come out of one version slab and one
// value arena, fresh per call because callers keep them, and a Scan copies
// what it yields into chunks shared by its next yields. A record that is
// only re-encoded (compaction) or only compared (the GC pass) is never
// materialized: a chain costs its key string.
//
// Runs are tiered into size levels (level = log_4(size/flushBytes))
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
	"io"
	"sync"
	"sync/atomic"

	"wren/internal/obs"
	"wren/internal/store"
	"wren/internal/store/fsutil"
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
}

// tables is the read snapshot: one atomic pointer swap publishes any
// change to the source set, so readers always see a consistent tiering.
// frozen is non-nil only while a flush is writing its run, and the flush
// holds flushMu throughout: whoever else holds flushMu sees it nil.
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

	// Counters, registered by Observe. blockReads counts the blocks point
	// probes walked and recordsChecked the run records they CRC-checked,
	// in a block up to and down a key's chain; iterBlockReads counts the
	// blocks run iterators (Scan, GC passes, compaction, Keys) entered.
	// syncs counts log fsyncs (one per Sync that found unsynced appends,
	// one per flush that rotated some out, one at Close), logWrites one per
	// Put and per PutBatch; gcVisited counts keys GC passes examined, which
	// must follow what was written, not what is stored, and the gauge
	// gcPending the keys the last pass or flush left for a later floor to
	// prune.
	flushes, compactions, compactionBytes, recovered, truncated, runsLoaded obs.Counter
	blockReads, iterBlockReads, recordsChecked, bloomSkips                  obs.Counter
	syncs, logWrites, gcVisited                                             obs.Counter
	gcPending                                                               atomic.Int64
}

// Metrics is the view of the engine's counters the benchmark reads. The
// owning server's registry has them all (see Observe).
type Metrics struct{ e *Engine }

// BlockReads returns how many run-file blocks reads have touched: point
// probes (sst.block_reads) plus run iterators (sst.iter_block_reads).
func (m Metrics) BlockReads() int64 { return int64(m.e.blockReads.Load() + m.e.iterBlockReads.Load()) }

// BloomSkips returns how many run probes the Bloom filters answered
// negatively without touching disk.
func (m Metrics) BloomSkips() int64 { return int64(m.e.bloomSkips.Load()) }

// Flushes returns how many memtable flushes have written a run.
func (m Metrics) Flushes() int { return int(m.e.flushes.Load()) }

// Compactions returns how many merge compactions have run.
func (m Metrics) Compactions() int { return int(m.e.compactions.Load()) }

var _ store.Engine = (*Engine)(nil)

// writeSize approximates the memtable footprint of one version for the
// flush trigger.
func writeSize(key string, v *store.Version) int64 {
	return int64(len(key)+len(v.Value)) + versionOverhead
}

// keySet collects the distinct live keys across every tier under flushMu:
// memtable keys plus a streaming pass over each run file, skipping keys
// whose whole chain the GC overlay cut.
func (e *Engine) keySet() map[string]struct{} {
	tabs := e.tabs.Load()
	seen := make(map[string]struct{})
	tabs.active.ForEachKey(func(k string) { seen[k] = struct{}{} })
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
	if len(tabs.runs) == 0 {
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
	for _, r := range tabs.runs {
		n += r.liveVersions()
	}
	return n
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
		"block_reads": &e.blockReads, "iter_block_reads": &e.iterBlockReads, "records_checked": &e.recordsChecked,
		"bloom_skips": &e.bloomSkips, "syncs": &e.syncs, "log_writes": &e.logWrites, "gc_visited": &e.gcVisited,
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
