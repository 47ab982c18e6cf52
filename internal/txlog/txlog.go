// Package txlog is the durable transaction-lifecycle log of a partition
// server: an append-only commit-record log that makes the ACKNOWLEDGED
// transaction — not just the applied one — the system's durability unit,
// and persists the replication progress toward every peer data center. It
// is the partition's write-ahead log, and under fsync=always its only
// fsync-before-ack point; the storage engine's own logs are a recovery
// accelerator behind it.
//
// Records: a cohort's PREPARE (proposed timestamp, snapshot metadata, the
// write set), a cohort's COMMIT (final timestamp), the ABORT that retires a
// prepare without an outcome or takes back a withdrawn one-phase commit,
// the coordinator's COORD-COMMIT decision of a two-phase commit (timestamp
// + cohort partitions) with the RESOLVED that retires it, a per-DC
// replicated-up-to CURSOR, and the transaction-sequence floor. A record
// applies at recovery only if it is exactly what its encoder writes
// (FuzzApplyRecord).
//
// # Files
//
//   - txlog.go: the options, the Log, Open and Close.
//   - record.go: the record kinds, one encoder each, and recovery's replay.
//   - append.go: the zero-filled region, appends, the group commit (Sync,
//     AfterSync) and the interval timer.
//   - twopc.go: 2PC state and sequence reservation.
//   - cursor.go: the replication cursors and UnreplicatedTail.
//   - compact.go: compaction, health and Repair.
//
// # Durability contract (fsync=always)
//
//   - A one-phase cohort (a write set on one partition: its vote is the
//     outcome) appends PREPARE and COMMIT back to back (LogDecided), and
//     MUST NOT vote or install before a sync covering both (SyncTo the LSN
//     LogDecided returns), whoever its coordinator is. If that sync fails
//     the commit MUST be withdrawn (Withdraw: out of the committed set, so
//     Repair's rewrite drops it, and an ABORT record behind the COMMIT, so
//     a recovery does not replay it), never voted for.
//   - A PrepareResp to a REMOTE coordinator MUST follow a sync covering the
//     PREPARE record. The coordinator's own cohort votes after the append:
//     its PREPARE sits in the same file ahead of the decision, so the
//     decision's sync covers both, and a crash before that sync leaves an
//     unacknowledged transaction either way.
//   - A client acknowledgement, and every CommitTx, MUST follow a sync
//     covering the COORD-COMMIT record — and through it every cohort's
//     PREPARE. A commit whose decision failed to reach the disk MUST be
//     aborted and withdrawn (CoordAbort), never acknowledged.
//   - A CommitAck MUST follow a sync covering the cohort's COMMIT record,
//     and MUST NOT be sent while the log is degraded. It MUST NOT pay for a
//     sync of its own: it only releases the coordinator's retained decision
//     (re-driven after 5 s), so it waits as a lazy waiter (AfterSync) for
//     the next sync anyone needs, and the server's 1 s lifecycle tick
//     flushes stragglers on an idle log.
//   - A committed record MUST NOT leave the log (MarkApplied, then
//     compaction) before an Engine.Sync that covers its apply, and a
//     ReplicateAck — which lets the ORIGIN's log forget the record — MUST
//     follow such a barrier at the receiver. One loop in the server runs
//     barrier → MarkApplied → acks → compaction (replica.Runtime.release).
//   - CURSOR, RESOLVED and ABORT records MUST NOT wait for a sync: losing
//     one only costs a deduplicated re-send, re-drive or re-abort.
//   - Handlers running on a connection's reader goroutine MUST NOT fsync:
//     they append, and leave the waiting to a tracked goroutine or a lazy
//     waiter.
//
// With fsync=interval the same records are written at the same points and
// a timer syncs them; fsync=never leaves flushing to the OS page cache.
// Under both, waiters are released at once.
//
//   - Under fsync=interval every record MUST be covered by a sync started
//     within fsyncPeriod of its append, with no call from the owner: an
//     append no pending timer will cover arms one (time.AfterFunc), and a
//     timer that fires after Close finds the log stopped and does nothing.
//
// Group commit is one mechanism: records are written to the file as they
// are appended, and every waiter — urgent (Sync, SyncTo, LogCoordCommitSync) or
// lazy (AfterSync) — waits for one synced-offset watermark. The first
// urgent waiter through flushMu fsyncs everything appended so far; those
// queued behind it find their records covered and return without touching
// the disk; lazy waiters never fsync and are released by whichever sync
// passes them.
//
// On disk the log is one file (commit.log): records, then zeros. The
// records are framed by the exact same rules as every other log in the
// data directory (internal/store/logrec: length prefix + CRC32), and the
// file lives in a txlog/ subdirectory of the engine's data dir so it is
// covered by the engine's directory lock and engine-type marker. The zeros
// are space the log already owns: the file is kept zero-filled a chunk
// ahead of the append position (extended by writing zeros — fallocate's
// unwritten extents and a truncate's new size both journal — whenever an
// append would come within a quarter chunk of the end; a compaction's
// fresh file before the one fsync its rewrite pays anyway). An append
// therefore overwrites blocks the file has instead of growing it, and the
// sync behind it has no size, block map or extent state to push through
// the filesystem's journal. That is why fdatasync (File.Datasync)
// suffices for every sync of the group commit: it covers the data and the
// size a later read needs — the moved size too, on the one sync in a few
// dozen that follows an extension — and leaves only the timestamps behind.
// The log ENDS at the first frame that does not check or has zero length.
//
//   - Everything from the end of the log to the end of the file MUST read
//     as zeros before the first append of a life. Recovery no longer
//     truncates the file there; where the tail is not zeros — the footprint
//     of a crash mid-append — it MUST be rewritten as zeros and synced
//     first. Otherwise a stale record left behind a torn one frames and
//     checksums clean right after a new record that happens to end where
//     it starts, and the life after replays it.
//   - A record MUST NOT be empty (every one starts with its kind byte):
//     eight zero bytes frame and checksum clean, so a frame of zero length
//     is where zero-filled space begins, and a scan ends there by rule.
//   - A compaction's rewrite MUST be synced before its rename, and the
//     directory synced before the rewrite's records count as synced.
//
// TestPageSubsetCrash cuts the power (the crash model fsutil states) at
// random points of a seeded history to check these rules.
//
// Compaction rewrites the file keeping only records still needed —
// prepares without an outcome, committed transactions not yet both applied
// and replicated everywhere, unresolved coordinator decisions, and the
// cursors — without holding the append lock across its I/O.
//
// # A log without a file
//
// Opened with an empty Options.Dir, the log keeps the same lifecycle —
// prepare → commit → applied → released, decisions held until every
// cohort's CommitAck, cursors, the sequence floor — and
// writes nothing: no record is encoded, every sync is already covered
// (Syncs stays 0, AfterSync runs its callback at once), and Compact only
// drops what is releasable. The memory backend runs it, so every server
// has one transaction lifecycle and one replication channel, and nothing
// survives a restart that the engine does not keep either.
package txlog

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"wren/internal/hlc"
	"wren/internal/obs"
	"wren/internal/store/fsutil"
	"wren/internal/wire"
)

// logName is the commit-record log file inside Options.Dir.
const logName = "commit.log"

// Fsync policies: when an appended record is forced to stable storage.
// The txlog is the one log with a policy; the storage engines never sync
// on their own (their owner's Engine.Sync is the barrier).
const (
	// FsyncAlways syncs before every record-backed acknowledgement (see
	// the durability contract).
	FsyncAlways = "always"
	// FsyncInterval syncs appended records on a timer the first unsynced
	// append arms (fsyncPeriod): a crash loses at most the last interval's
	// records. The default.
	FsyncInterval = "interval"
	// FsyncNever leaves flushing to the OS page cache until Sync or Close:
	// survives process crashes (the data is in kernel buffers) but not
	// power loss.
	FsyncNever = "never"
)

// ParseFsync canonicalizes a policy name ("" selects FsyncInterval).
func ParseFsync(s string) (string, error) {
	switch s {
	case "":
		return FsyncInterval, nil
	case FsyncAlways, FsyncInterval, FsyncNever:
		return s, nil
	default:
		return "", fmt.Errorf("txlog: unknown fsync policy %q (want always, interval or never)", s)
	}
}

// Options configures a transaction log.
type Options struct {
	// Dir is the directory holding the log (created if missing). The
	// servers place it INSIDE the engine's data directory, so the engine's
	// exclusive lock and engine-type marker cover it. Empty opens a log
	// without a file, which ignores Fsync.
	Dir string
	// NumDCs sizes the replication cursor (one entry per DC).
	NumDCs int
	// SelfDC is this server's DC; its own cursor entry is never a
	// retention constraint.
	SelfDC int
	// Fsync is the group-commit policy: FsyncAlways, FsyncInterval (the
	// "" default) or FsyncNever.
	Fsync string
}

// Log is the durable transaction-lifecycle log of one partition server.
// All methods are safe for concurrent use.
type Log struct {
	fs        fsutil.FS // every file operation; tests pass crashfs (see open)
	dir       string
	fsync     string
	compactAt int // appended records that trigger a rewrite; tests lower it
	numDCs    int
	selfDC    int

	// sh.Mu guards both the file append state and the in-memory lifecycle
	// state below — a single-file log needs no striping, and one lock
	// keeps a record append atomic with its state transition.
	sh struct {
		Mu  sync.Mutex
		Enc *wire.Encoder // reusable append buffer
		fsutil.Tail
	}
	// stopped (under sh.Mu) quiesces appends after Close: the network
	// delivers messages on goroutines the server shutdown does not join,
	// so a straggler acknowledgement arriving after Close must become a
	// no-op, not a recorded durability failure on a closed file.
	stopped   bool
	prepared  map[uint64]*PreparedTx
	committed map[uint64]*CommittedTx
	coord     map[uint64]*CoordTx
	cursor    []hlc.Timestamp
	appends   int    // records since the last compaction
	maxSeq    uint64 // reserved/observed tx-sequence watermark (persisted by recSeq)
	// base maps file offsets to log sequence numbers: a record ending at
	// offset o has LSN base+o. Waiters hold LSNs, which stay valid when a
	// compaction moves the records they name to other offsets (or folds
	// them into its rewrite); synced is the LSN everything at or below
	// which is known stable; lazy holds the AfterSync waiters above it, in
	// LSN order. All under sh.Mu.
	base   int64
	synced int64
	lazy   []lazyWaiter
	// filled is the file offset up to which the file is known to exist and
	// to hold zeros behind the records: sh.Size ≤ filled ≤ the file's
	// length, and [sh.Size, length) reads as zeros. Under sh.Mu.
	filled int64
	// armed (under sh.Mu) is set by an interval append that arms a timer,
	// and cleared by the next Sync to read its target.
	armed bool

	// flushMu serializes the fsyncs and a compaction's handle swap, so a
	// sync never runs against a file being replaced. Lock order: flushMu,
	// then sh.Mu.
	flushMu sync.Mutex
	syncs   obs.Counter // syncs of the log file, compaction's rewrite not included

	errMu  sync.Mutex
	err    error
	errSeq uint64 // bumped on every recorded failure; Repair's staleness check
	closed bool
	reg    *obs.Registry // the owner's, from Observe; nil until then
}

// Open creates or recovers a transaction log in opts.Dir: existing records
// are replayed into the in-memory lifecycle state (clearing a torn tail),
// pairing prepares with their outcomes. An empty Dir opens a log without a
// file (see the package comment).
func Open(opts Options) (*Log, error) { return open(opts, fsutil.OS) }

// open is Open over fsys, which tests set to a crashfs.
func open(opts Options, fsys fsutil.FS) (*Log, error) {
	if opts.NumDCs <= 0 {
		return nil, fmt.Errorf("txlog: NumDCs must be positive")
	}
	l := &Log{
		fs:        fsys,
		dir:       opts.Dir,
		compactAt: defaultCompactThreshold,
		numDCs:    opts.NumDCs,
		selfDC:    opts.SelfDC,
		prepared:  make(map[uint64]*PreparedTx),
		committed: make(map[uint64]*CommittedTx),
		coord:     make(map[uint64]*CoordTx),
		cursor:    make([]hlc.Timestamp, opts.NumDCs),
	}
	if opts.Dir == "" {
		return l, nil
	}
	policy, err := ParseFsync(opts.Fsync)
	if err != nil {
		return nil, err
	}
	l.fsync = policy
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("txlog: create dir: %w", err)
	}
	l.sh.Enc = wire.NewEncoder()
	if err := l.recover(); err != nil {
		return nil, err
	}
	// One directory sync covers the log file creation, so a fresh txlog
	// directory survives power loss as a unit.
	if err := fsys.SyncDir(opts.Dir); err != nil {
		_ = l.sh.F.Close()
		return nil, fmt.Errorf("txlog: sync dir: %w", err)
	}
	return l, nil
}

// path names the log file.
func (l *Log) path() string { return filepath.Join(l.dir, logName) }

// Close forces the log to stable storage (a clean shutdown is fully
// durable whatever the policy), closes the file, and returns the first
// error any append, sync or compaction hit.
func (l *Log) Close() error {
	l.errMu.Lock()
	if l.closed {
		err := l.err
		l.errMu.Unlock()
		return err
	}
	l.closed = true
	l.errMu.Unlock()

	l.Sync()
	l.flushMu.Lock() // no sync or compaction is using the handle
	l.sh.Mu.Lock()
	l.stopped = true
	if l.dir != "" {
		if err := l.sh.F.Close(); err != nil {
			l.recordErr(fmt.Errorf("txlog: close: %w", err))
		}
	}
	l.sh.Mu.Unlock()
	l.flushMu.Unlock()
	l.errMu.Lock()
	defer l.errMu.Unlock()
	return l.err
}
