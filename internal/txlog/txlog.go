// Package txlog is the durable transaction-lifecycle log of a partition
// server: an append-only commit-record log that makes the ACKNOWLEDGED
// transaction — not just the applied one — the system's durability unit,
// and persists the replication progress toward every peer data center. It
// is the partition's write-ahead log, and under fsync=always its only
// fsync-before-ack point; the storage engine's own logs are a recovery
// accelerator behind it.
//
// Records: a cohort's PREPARE (proposed timestamp, snapshot metadata, the
// write set), a cohort's COMMIT (final timestamp), the coordinator's
// COORD-COMMIT decision (timestamp + cohort partitions) with the RESOLVED
// or ABORT that retires it, a per-DC replicated-up-to CURSOR, and the
// transaction-sequence floor.
//
// # Durability contract (fsync=always)
//
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
// a timer syncs them, so the exposure is bounded by the interval;
// fsync=never leaves flushing to the OS page cache. Under both, waiters
// are released at once.
//
// Group commit is one mechanism: records are written to the file as they
// are appended, and every waiter — urgent (Sync, LogCoordCommitSync) or
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
// cohort's CommitAck, cursors and resync pins, the sequence floor — and
// writes nothing: no record is encoded, every sync is already covered
// (Syncs stays 0, AfterSync runs its callback at once), and Compact only
// drops what is releasable. The memory backend runs it, so every server
// has one transaction lifecycle and one replication channel, and nothing
// survives a restart that the engine does not keep either.
package txlog

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"wren/internal/hlc"
	"wren/internal/obs"
	"wren/internal/store/fsutil"
	"wren/internal/store/logrec"
	"wren/internal/wire"
)

// logName is the commit-record log file inside Options.Dir.
const logName = "commit.log"

// chunk is how far ahead of the append position the file is kept
// zero-filled: the region is extended back to a full chunk whenever an
// append would come within a quarter of one of its end, so one sync in
// (3/4 chunk ÷ bytes per sync) moves the file size and the rest do not.
const chunk = 256 << 10

// zeros is what extends the region (and clears a torn tail at recovery),
// one page per write: a larger write makes the page cache hold the region
// in large folios, and the kernel then accounts a whole folio as written
// (/proc/<pid>/io write_bytes) for every record that dirties one — six
// times the bytes that reach the device, at no gain in latency.
var zeros [4096]byte

// DefaultCompactThreshold is the number of appended records after which the
// log is rewritten from retained state.
const DefaultCompactThreshold = 4096

// Record kinds on disk. Values are part of the on-disk format; do not
// reorder.
const (
	recPrepare     = 1
	recCommit      = 2
	recCoordCommit = 3
	recCursor      = 4
	recAbort       = 5
	recResolved    = 6
	// recSeq persists the highest transaction sequence number the log has
	// seen, so a restarted server can seed its id generator ABOVE every
	// id of its previous lives. Without it, sequence numbers restart at 1
	// each life while the txlog keeps old ids alive across lives (resync
	// dedupe, re-driven outcomes), and a colliding fresh id could match a
	// previous life's transaction. Written on compaction, which is what
	// drops the old records the maximum would otherwise be rescanned from.
	recSeq = 7
)

// seqMask extracts the 40-bit sequence component of a transaction id
// (DC in the top byte, partition in the next two — see Server.newTxID).
const seqMask = (uint64(1) << 40) - 1

// Fsync policies: when an appended record is forced to stable storage.
// The txlog is the one log with a policy; the storage engines never sync
// on their own (their owner's Engine.Sync is the barrier).
const (
	// FsyncAlways syncs before every record-backed acknowledgement (see
	// the durability contract).
	FsyncAlways = "always"
	// FsyncInterval syncs appended records on a background timer
	// (fsyncPeriod): a crash loses at most the last interval's records.
	// The default.
	FsyncInterval = "interval"
	// FsyncNever leaves flushing to the OS page cache until Sync or Close:
	// survives process crashes (the data is in kernel buffers) but not
	// power loss.
	FsyncNever = "never"
)

// fsyncPeriod is the timer period of the FsyncInterval policy.
const fsyncPeriod = 10 * time.Millisecond

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
	// CompactThreshold overrides how many appended records trigger a
	// rewrite (0 selects DefaultCompactThreshold; negative disables
	// compaction).
	CompactThreshold int
}

// PreparedTx is a logged prepare: the cohort-local write set of a
// transaction whose 2PC outcome is not yet known.
type PreparedTx struct {
	TxID   uint64
	PT     hlc.Timestamp   // proposed commit timestamp
	RST    hlc.Timestamp   // Wren: transaction's remote snapshot time
	SV     []hlc.Timestamp // Cure: snapshot vector
	Writes []wire.KV
}

// CommittedTx is a logged commit: a prepare whose final timestamp arrived.
type CommittedTx struct {
	TxID   uint64
	CT     hlc.Timestamp
	RST    hlc.Timestamp
	SV     []hlc.Timestamp
	Writes []wire.KV

	// applied is set by MarkApplied once the transaction's writes have
	// reached the storage engine. Per entry, not a watermark: a re-driven
	// recovered commit lands with a ct BELOW timestamps already marked
	// applied (recovered prepares deliberately do not hold the apply
	// bound back), and a watermark comparison would let compaction
	// release its record before the engine ever saw the writes.
	applied bool
}

// Committed returns the transaction p prepared, committed at ct.
func (p *PreparedTx) Committed(ct hlc.Timestamp) *CommittedTx {
	return &CommittedTx{TxID: p.TxID, CT: ct, RST: p.RST, SV: p.SV, Writes: p.Writes}
}

// CoordTx is a coordinator-side commit decision: the record that makes the
// client acknowledgement durable. Cohorts lists the partitions the
// decision must reach; the entry is retained until every cohort has
// acknowledged a durable COMMIT record of its own.
type CoordTx struct {
	TxID    uint64
	CT      hlc.Timestamp
	Cohorts []uint16

	pending map[uint16]struct{}
	created time.Time // when the decision was logged (or recovered)
}

// Log is the durable transaction-lifecycle log of one partition server.
// All methods are safe for concurrent use.
type Log struct {
	fs     fsutil.FS // every file operation; tests pass crashfs (see open)
	dir    string
	fsync  string
	compat int
	numDCs int
	selfDC int

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
	// pins[dc], while non-zero, caps cursor advancement at the resync
	// high-water mark for that DC: an acknowledgement for NEWER traffic
	// must not imply the re-sent tail landed (the tail may still be in
	// flight on the FIFO link behind it), and a cursor past unconfirmed
	// records would release them from the log — and, persisted, hide them
	// from the next life's UnreplicatedTail.
	pins    []hlc.Timestamp
	appends int    // records since the last compaction
	maxSeq  uint64 // reserved/observed tx-sequence watermark (persisted by recSeq)
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

	stop chan struct{}
	wg   sync.WaitGroup
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
	compact := opts.CompactThreshold
	if compact == 0 {
		compact = DefaultCompactThreshold
	}
	l := &Log{
		fs:        fsys,
		dir:       opts.Dir,
		compat:    compact,
		numDCs:    opts.NumDCs,
		selfDC:    opts.SelfDC,
		prepared:  make(map[uint64]*PreparedTx),
		committed: make(map[uint64]*CommittedTx),
		coord:     make(map[uint64]*CoordTx),
		cursor:    make([]hlc.Timestamp, opts.NumDCs),
		pins:      make([]hlc.Timestamp, opts.NumDCs),
		stop:      make(chan struct{}),
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
	if policy == FsyncInterval {
		l.wg.Add(1)
		go l.fsyncLoop()
	}
	return l, nil
}

// path names the log file.
func (l *Log) path() string { return filepath.Join(l.dir, logName) }

// recover replays the log into the lifecycle state and leaves the file
// open for appending at the end of the log, with nothing but zeros behind
// it (see the package comment): a tail that is not zeros is what a crash
// mid-append leaves — a torn record, and possibly whole ones behind it
// whose pages reached the disk first — and is cleared and synced here,
// before anything can be appended in front of it.
func (l *Log) recover() error {
	path := l.path()
	buf, err := l.fs.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("txlog: read %s: %w", path, err)
	}
	good := logrec.ScanFrames(buf, l.applyRecord)
	f, err := l.fs.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("txlog: open %s: %w", path, err)
	}
	if torn := bytes.TrimRight(buf[good:], "\x00"); len(torn) > 0 {
		err := writeZeros(f, int64(good), int64(len(torn)))
		if err == nil {
			err = f.Sync()
		}
		if err != nil {
			_ = f.Close()
			return fmt.Errorf("txlog: clear torn tail of %s: %w", path, err)
		}
		// Before Observe: no server to name yet, only the directory.
		l.event(nil, "txlog.torn_tail_cleared", "bytes", len(torn), "offset", good)
	}
	if _, err := f.Seek(int64(good), 0); err != nil {
		_ = f.Close()
		return fmt.Errorf("txlog: seek %s: %w", path, err)
	}
	l.sh.F = f
	l.sh.Size = int64(good)
	l.filled = int64(len(buf))
	l.synced = int64(good) // everything read back is on disk by definition
	return nil
}

// writeZeros overwrites [off, off+n) of f with zeros, leaving the handle's
// append position where it is.
func writeZeros(f fsutil.File, off, n int64) error {
	for n > 0 {
		z := zeros[:min(n, int64(len(zeros)))]
		if _, err := f.WriteAt(z, off); err != nil {
			return err
		}
		off += int64(len(z))
		n -= int64(len(z))
	}
	return nil
}

// applyRecord replays one scanned payload into the lifecycle state. A
// non-nil error marks the record torn, ending the scan there.
func (l *Log) applyRecord(payload []byte) error {
	d := wire.NewDecoder(payload)
	kind := d.Byte()
	switch kind {
	case recPrepare:
		p := &PreparedTx{TxID: d.Uvarint(), PT: d.Timestamp(), RST: d.Timestamp(), SV: d.Timestamps()}
		p.Writes = decodeWrites(d)
		if err := d.Err(); err != nil {
			return err
		}
		l.prepared[p.TxID] = p
		l.noteSeq(p.TxID)
	case recCommit:
		txID, ct := d.Uvarint(), d.Timestamp()
		if err := d.Err(); err != nil {
			return err
		}
		if p, ok := l.prepared[txID]; ok {
			delete(l.prepared, txID)
			l.committed[txID] = p.Committed(ct)
		}
		l.noteSeq(txID)
	case recCoordCommit:
		c := &CoordTx{TxID: d.Uvarint(), CT: d.Timestamp(), created: time.Now()}
		n := d.Uvarint()
		if n > 1<<16 {
			return fmt.Errorf("txlog: cohort count %d out of range", n)
		}
		for i := uint64(0); i < n; i++ {
			c.Cohorts = append(c.Cohorts, uint16(d.Uvarint()))
		}
		if err := d.Err(); err != nil {
			return err
		}
		c.pending = make(map[uint16]struct{}, len(c.Cohorts))
		for _, p := range c.Cohorts {
			c.pending[p] = struct{}{}
		}
		l.coord[c.TxID] = c
		l.noteSeq(c.TxID)
	case recCursor:
		dc, upTo := int(d.Byte()), d.Timestamp()
		if err := d.Err(); err != nil {
			return err
		}
		if dc >= 0 && dc < l.numDCs && upTo > l.cursor[dc] {
			l.cursor[dc] = upTo
		}
	case recAbort:
		txID := d.Uvarint()
		if err := d.Err(); err != nil {
			return err
		}
		delete(l.prepared, txID)
	case recResolved:
		txID := d.Uvarint()
		if err := d.Err(); err != nil {
			return err
		}
		delete(l.coord, txID)
	case recSeq:
		seq := d.Uvarint()
		if err := d.Err(); err != nil {
			return err
		}
		if seq > l.maxSeq {
			l.maxSeq = seq
		}
	default:
		return fmt.Errorf("txlog: unknown record kind %d", kind)
	}
	return nil
}

// noteSeq folds a transaction id's sequence component into the persisted
// maximum (see recSeq).
func (l *Log) noteSeq(txID uint64) {
	if seq := txID & seqMask; seq > l.maxSeq {
		l.maxSeq = seq
	}
}

func encodeWrites(e *wire.Encoder, writes []wire.KV) {
	e.Uvarint(uint64(len(writes)))
	for i := range writes {
		e.String(writes[i].Key)
		e.BytesField(writes[i].Value)
		e.Bool(writes[i].Tombstone)
	}
}

func encodePrepare(e *wire.Encoder, txID uint64, pt, rst hlc.Timestamp, sv []hlc.Timestamp, writes []wire.KV) {
	e.Byte(recPrepare)
	e.Uvarint(txID)
	e.Timestamp(pt)
	e.Timestamp(rst)
	e.Timestamps(sv)
	encodeWrites(e, writes)
}

func encodeCoordCommit(e *wire.Encoder, c *CoordTx) {
	e.Byte(recCoordCommit)
	e.Uvarint(c.TxID)
	e.Timestamp(c.CT)
	e.Uvarint(uint64(len(c.Cohorts)))
	for _, p := range c.Cohorts {
		e.Uvarint(uint64(p))
	}
}

func decodeWrites(d *wire.Decoder) []wire.KV {
	n := d.Uvarint()
	if d.Err() != nil || n == 0 || n > 1<<22 {
		return nil
	}
	out := make([]wire.KV, n)
	for i := range out {
		out[i].Key = d.String()
		out[i].Value = append([]byte(nil), d.BytesField()...)
		out[i].Tombstone = d.Bool()
	}
	return out
}

// recordErr remembers the first append/sync failure, logging the
// "txlog.degraded" event at occurrence (matching the storage engines'
// discipline): degraded commit-record durability must not wait for Close
// to surface.
func (l *Log) recordErr(err error) {
	if err == nil {
		return
	}
	l.errMu.Lock()
	l.errSeq++
	first := l.err == nil
	if first {
		l.err = err
	}
	reg := l.reg
	l.errMu.Unlock()
	if first {
		l.event(reg, "txlog.degraded", "err", err)
	}
}

// Observe registers the log's counters in the owning server's registry and
// names the log's events after that server.
func (l *Log) Observe(reg *obs.Registry) {
	reg.Func("txlog.syncs", l.syncs.Load)
	l.errMu.Lock()
	l.reg = reg
	l.errMu.Unlock()
}

// event logs kind through reg, adding the log's directory when it has one:
// a file-less log is named by its server alone.
func (l *Log) event(reg *obs.Registry, kind string, fields ...any) {
	if l.dir != "" {
		fields = append(fields, "dir", l.dir)
	}
	reg.Event(kind, fields...)
}

func (l *Log) onErr(err error) { l.recordErr(fmt.Errorf("txlog: %w", err)) }

// Healthy reports the first append, sync or compaction failure the log has
// recorded, or nil while the write path is fully intact. Servers consult
// it (together with the engine's) to stop admitting writes when the
// durability the acknowledgement promises can no longer be delivered.
func (l *Log) Healthy() error {
	l.errMu.Lock()
	defer l.errMu.Unlock()
	return l.err
}

// InjectFailure records err as a write-path failure, flipping Healthy —
// and with it the owning server into read-only admission. Test-only: it
// lets admission tests exercise the degraded path without arranging a
// real I/O error on the log file.
func (l *Log) InjectFailure(err error) { l.recordErr(err) }

// Repair attempts to exit the degraded state: a full compaction rewrites
// the log from retained in-memory state onto a fresh fsynced file (the
// rewrite clears a frozen shard and leaves nothing volatile), then a probe
// append plus sync proves the new handle's write path end to end. Only if
// no NEW failure was recorded while the repair ran is the sticky error
// cleared — clearing it first would let an acknowledgement ride on a log
// that is still broken. Reports whether the log is healthy afterwards.
//
// The retained state is exactly what recovery would rebuild, so nothing
// acknowledged is lost by the rewrite; what was lost to the original
// failure stayed unacknowledged (the server refuses writes while
// degraded), which is what makes probation re-admission sound.
func (l *Log) Repair() bool {
	l.errMu.Lock()
	if l.closed || l.err == nil {
		healthy := l.err == nil
		l.errMu.Unlock()
		return healthy
	}
	seq := l.errSeq
	l.errMu.Unlock()

	l.Compact()

	// Probe append: re-record the sequence watermark (idempotent — recovery
	// max-merges it) through the repaired handle.
	l.sh.Mu.Lock()
	if l.stopped {
		l.sh.Mu.Unlock()
		return false
	}
	l.appendLocked(func(e *wire.Encoder) {
		e.Byte(recSeq)
		e.Uvarint(l.maxSeq)
	})
	l.sh.Mu.Unlock()
	l.Sync()

	l.errMu.Lock()
	if l.errSeq != seq {
		l.errMu.Unlock()
		return false // the repair itself (or concurrent traffic) failed again
	}
	l.err = nil
	reg := l.reg
	l.errMu.Unlock()
	l.event(reg, "txlog.restored")
	return true
}

// appendLocked frames one record into the append buffer and appends it
// into the zero-filled region, extending the region first when the record
// would end within a quarter chunk of its end. Caller holds sh.Mu. After
// Close the append quietly drops: straggler messages delivered during
// shutdown are not durability failures. Without a file the transition the
// caller made is the whole record; it only counts toward compaction.
func (l *Log) appendLocked(encode func(*wire.Encoder)) {
	if l.stopped {
		return
	}
	l.appends++
	if l.dir == "" {
		return
	}
	l.sh.Enc.Reset()
	logrec.AppendFrame(l.sh.Enc, encode)
	end := l.sh.Size + int64(l.sh.Enc.Len())
	if end > l.filled-chunk/4 && !l.sh.Failed {
		// A failed extension is a recorded failure like any other; the
		// append itself still lands (growing the file the old way), and
		// the rewrite that repairs the log starts a fresh region.
		if err := writeZeros(l.sh.F, l.filled, end+chunk-l.filled); err != nil {
			l.onErr(fmt.Errorf("extend: %w", err))
		} else {
			l.filled = end + chunk
		}
	}
	l.sh.Append(l.sh.Enc.Bytes(), l.onErr)
	if l.sh.Size != end || l.filled < end {
		// Past the region (its extension failed), or a failed append that
		// was rolled back by truncating the file to the last record: the
		// file ends where the records do.
		l.filled = l.sh.Size
	}
}

// SyncOnAppend reports whether the fsync policy requires a sync before a
// record-backed acknowledgement may leave the server (fsync=always).
func (l *Log) SyncOnAppend() bool { return l.fsync == FsyncAlways }

// lazyWaiter is a callback parked until the synced watermark reaches lsn.
type lazyWaiter struct {
	lsn int64
	fn  func()
}

// endLocked is the LSN of the last appended record. Caller holds sh.Mu.
func (l *Log) endLocked() int64 { return l.base + l.sh.Size }

// Sync is the urgent waiter of the group commit: it returns once every
// record appended before the call is stable. The first caller through
// flushMu fsyncs everything appended so far; callers queued behind it
// whose records that covered return without touching the disk. Callers
// needing a durability STATEMENT (an acknowledgement) must consult Healthy
// afterwards — a failed fsync is recorded, not returned.
func (l *Log) Sync() {
	l.sh.Mu.Lock()
	target := l.endLocked()
	l.sh.Mu.Unlock()
	l.syncTo(target)
}

func (l *Log) syncTo(target int64) {
	l.flushMu.Lock()
	l.sh.Mu.Lock()
	f, end := l.sh.F, l.endLocked()
	covered := l.stopped || l.synced >= target
	l.sh.Mu.Unlock()
	var ready []lazyWaiter
	if !covered {
		l.syncs.Add(1)
		if err := f.Datasync(); err != nil {
			l.recordErr(fmt.Errorf("txlog: sync: %w", err))
		} else {
			ready = l.advanceSynced(end)
		}
	}
	l.flushMu.Unlock()
	for _, w := range ready {
		w.fn()
	}
}

// advanceSynced raises the stable watermark to lsn and returns the lazy
// waiters it passed, for the caller to run once it holds no lock.
func (l *Log) advanceSynced(lsn int64) []lazyWaiter {
	l.sh.Mu.Lock()
	defer l.sh.Mu.Unlock()
	if lsn > l.synced {
		l.synced = lsn
	}
	n := 0
	for n < len(l.lazy) && l.lazy[n].lsn <= l.synced {
		n++
	}
	ready := l.lazy[:n:n]
	l.lazy = l.lazy[n:]
	return ready
}

// AfterSync is the lazy waiter of the group commit: fn runs once every
// record appended before the call is stable, on whichever goroutine's sync
// gets there — it must not block, and it must consult Healthy before
// making a durability statement. AfterSync never causes an fsync itself;
// an idle log's stragglers are flushed by the owner's periodic Sync. When
// the records are already stable, or the policy does not sync before
// acknowledging, fn runs at once; after Close it is dropped.
func (l *Log) AfterSync(fn func()) {
	l.sh.Mu.Lock()
	if l.stopped {
		l.sh.Mu.Unlock()
		return
	}
	if end := l.endLocked(); l.SyncOnAppend() && l.synced < end {
		l.lazy = append(l.lazy, lazyWaiter{lsn: end, fn: fn})
		l.sh.Mu.Unlock()
		return
	}
	l.sh.Mu.Unlock()
	fn()
}

// LogPrepare records a cohort-side prepare. Under fsync=always a vote for
// a remote coordinator must Sync first (see the package contract).
func (l *Log) LogPrepare(p *PreparedTx) {
	l.sh.Mu.Lock()
	l.prepared[p.TxID] = p
	l.noteSeq(p.TxID)
	l.appendLocked(func(e *wire.Encoder) { encodePrepare(e, p.TxID, p.PT, p.RST, p.SV, p.Writes) })
	l.sh.Mu.Unlock()
}

// LogCommit records the 2PC outcome for a prepared transaction, moving it
// to the committed set as c itself — the logged prepare's Committed — so
// the caller's commit list and the log share one struct: the log writes
// only its applied mark, which the caller never reads. It reports whether the transaction was
// prepared here and not yet committed — false means the record is a
// duplicate (a re-driven CommitTx after recovery) and nothing was
// appended. The coordinator is acknowledged through AfterSync.
func (l *Log) LogCommit(c *CommittedTx) bool {
	l.sh.Mu.Lock()
	if _, ok := l.prepared[c.TxID]; !ok {
		l.sh.Mu.Unlock()
		return false
	}
	delete(l.prepared, c.TxID)
	l.committed[c.TxID] = c
	l.appendLocked(func(e *wire.Encoder) {
		e.Byte(recCommit)
		e.Uvarint(c.TxID)
		e.Timestamp(c.CT)
	})
	l.sh.Mu.Unlock()
	return true
}

// LogCoordCommitSync records a coordinator commit decision — the record
// whose durability backs the client acknowledgement — and, under
// fsync=always, returns once a sync covers it and everything appended
// before it (this server's own PREPARE included). Concurrent commit
// collections share that sync like any other urgent waiters. Under the
// other policies the interval loop or Close makes the record stable later.
// Callers needing a durability statement consult Healthy afterwards, as
// with Sync, and send CommitTx only after this call so a cohort's
// CommitAck can never arrive before the decision is registered.
func (l *Log) LogCoordCommitSync(txID uint64, ct hlc.Timestamp, cohorts []uint16) {
	c := &CoordTx{TxID: txID, CT: ct, Cohorts: append([]uint16(nil), cohorts...),
		pending: make(map[uint16]struct{}, len(cohorts)), created: time.Now()}
	for _, p := range c.Cohorts {
		c.pending[p] = struct{}{}
	}
	l.sh.Mu.Lock()
	l.coord[txID] = c
	l.noteSeq(txID)
	l.appendLocked(func(e *wire.Encoder) { encodeCoordCommit(e, c) })
	target := l.endLocked()
	l.sh.Mu.Unlock()
	if l.SyncOnAppend() {
		l.syncTo(target)
	}
}

// NextSeqFloor returns the reserved/observed transaction-sequence
// watermark. A restarted server seeds its id generator above it, so fresh
// transaction ids can never collide with a previous life's — ids the log
// keeps alive across lives (resync dedupe, re-driven outcomes, a remote
// cohort's retained prepare) would otherwise match unrelated new
// transactions.
func (l *Log) NextSeqFloor() uint64 {
	l.sh.Mu.Lock()
	defer l.sh.Mu.Unlock()
	return l.maxSeq
}

// ReserveSeqs durably raises the sequence watermark to at least upTo,
// BEFORE the server hands out ids below it: an id can reach another
// server's durable log (a cohort's prepare) without ever producing a
// record here — the coordinator may crash right after StartTx — so the
// watermark must cover allocations, not just logged lifecycles. The
// record is fsynced under the always policy; under interval/never the
// reuse window after a crash is the same bounded one every other
// durability statement has.
func (l *Log) ReserveSeqs(upTo uint64) {
	l.sh.Mu.Lock()
	if upTo <= l.maxSeq {
		l.sh.Mu.Unlock()
		return
	}
	l.maxSeq = upTo
	l.appendLocked(func(e *wire.Encoder) {
		e.Byte(recSeq)
		e.Uvarint(upTo)
	})
	l.sh.Mu.Unlock()
	if l.SyncOnAppend() {
		l.Sync()
	}
}

// CoordDecision reports the logged-but-unresolved commit decision for a
// transaction this server coordinated, if any. Cohorts use it through the
// TxStatus wire probe to terminate recovered prepares safely: a decision
// can only be made in the life that ran the 2PC, so "no decision
// retained" from the coordinator means the transaction never was — or no
// longer needs to be — committed here. (A RESOLVED decision implies every
// cohort already holds the outcome durably, so no cohort with a dangling
// prepare can be asking about it.)
func (l *Log) CoordDecision(txID uint64) (hlc.Timestamp, bool) {
	l.sh.Mu.Lock()
	defer l.sh.Mu.Unlock()
	c, ok := l.coord[txID]
	if !ok {
		return 0, false
	}
	return c.CT, true
}

// CoordAbort withdraws a logged commit decision whose client
// acknowledgement was never sent (the decision's own fsync failed and the
// 2PC was aborted): a RESOLVED record keeps a later recovery from
// re-driving a commit the client was told failed.
func (l *Log) CoordAbort(txID uint64) {
	l.sh.Mu.Lock()
	defer l.sh.Mu.Unlock()
	if _, ok := l.coord[txID]; !ok {
		return
	}
	delete(l.coord, txID)
	l.appendLocked(func(e *wire.Encoder) {
		e.Byte(recResolved)
		e.Uvarint(txID)
	})
}

// RedrivePending returns the unresolved commit decisions older than age,
// each with Cohorts narrowed to the partitions that have not yet
// acknowledged a durable outcome. The server periodically re-sends their
// CommitTx: a cohort that crashed between PrepareResp and CommitTx — or
// whose acknowledgement was lost — eventually receives the outcome even
// when this coordinator itself never restarts.
func (l *Log) RedrivePending(age time.Duration) []*CoordTx {
	cutoff := time.Now().Add(-age)
	l.sh.Mu.Lock()
	defer l.sh.Mu.Unlock()
	var out []*CoordTx
	for _, c := range l.coord {
		if c.created.After(cutoff) || len(c.pending) == 0 {
			continue
		}
		snap := &CoordTx{TxID: c.TxID, CT: c.CT, Cohorts: make([]uint16, 0, len(c.pending))}
		for p := range c.pending {
			snap.Cohorts = append(snap.Cohorts, p)
		}
		out = append(out, snap)
	}
	return out
}

// CoordAck records that a cohort holds a durable COMMIT record for the
// transaction. Once every cohort has acknowledged, the decision is
// resolved: it no longer needs re-driving after a restart, so a RESOLVED
// record releases it (lazily synced — a lost resolution only costs a
// harmless, deduplicated re-drive).
func (l *Log) CoordAck(txID uint64, partition uint16) {
	l.sh.Mu.Lock()
	defer l.sh.Mu.Unlock()
	c, ok := l.coord[txID]
	if !ok {
		return
	}
	delete(c.pending, partition)
	if len(c.pending) > 0 {
		return
	}
	delete(l.coord, txID)
	l.appendLocked(func(e *wire.Encoder) {
		e.Byte(recResolved)
		e.Uvarint(txID)
	})
}

// LogAbort releases a prepared transaction whose 2PC was abandoned (a
// degraded cohort aborted the commit, or a recovered prepare expired with
// no outcome). Lazily synced: a lost abort only resurrects a prepare that
// will expire again.
func (l *Log) LogAbort(txID uint64) {
	l.sh.Mu.Lock()
	defer l.sh.Mu.Unlock()
	if _, ok := l.prepared[txID]; !ok {
		return
	}
	delete(l.prepared, txID)
	l.appendLocked(func(e *wire.Encoder) {
		e.Byte(recAbort)
		e.Uvarint(txID)
	})
}

// AdvanceCursor records that the peer DC has acknowledged every local
// transaction with commit timestamp ≤ upTo. Lazily synced: replaying a
// stale cursor after a crash only re-sends transactions the receiver
// deduplicates.
func (l *Log) AdvanceCursor(dc int, upTo hlc.Timestamp) {
	if dc < 0 || dc >= l.numDCs {
		return
	}
	l.sh.Mu.Lock()
	defer l.sh.Mu.Unlock()
	if pin := l.pins[dc]; pin != 0 && upTo > pin {
		// Resync to this DC is still unconfirmed: acks for newer traffic
		// may not vouch for the re-sent tail (see pins).
		upTo = pin
	}
	if upTo <= l.cursor[dc] {
		return
	}
	l.cursor[dc] = upTo
	l.appendLocked(func(e *wire.Encoder) {
		e.Byte(recCursor)
		e.Byte(uint8(dc))
		e.Timestamp(upTo)
	})
}

// PinResync caps cursor advancement for dc at upTo — the high-water mark
// of the unreplicated tail about to be re-sent — until UnpinResync
// confirms the tail was acknowledged. Called before the server starts
// serving, so no concurrent ack can slip past first.
func (l *Log) PinResync(dc int, upTo hlc.Timestamp) {
	if dc < 0 || dc >= l.numDCs || upTo == 0 {
		return
	}
	l.sh.Mu.Lock()
	defer l.sh.Mu.Unlock()
	l.pins[dc] = upTo
}

// UnpinResync lifts dc's resync pin once the re-sent tail has been
// acknowledged through upTo (acks for earlier resync batches leave the
// pin in place).
func (l *Log) UnpinResync(dc int, upTo hlc.Timestamp) {
	if dc < 0 || dc >= l.numDCs {
		return
	}
	l.sh.Mu.Lock()
	defer l.sh.Mu.Unlock()
	if l.pins[dc] != 0 && upTo >= l.pins[dc] {
		l.pins[dc] = 0
	}
}

// Cursor returns the replicated-up-to mark for a peer DC.
func (l *Log) Cursor(dc int) hlc.Timestamp {
	if dc < 0 || dc >= l.numDCs {
		return 0
	}
	l.sh.Mu.Lock()
	defer l.sh.Mu.Unlock()
	return l.cursor[dc]
}

// MarkApplied records that the writes of exactly these transactions are
// in the storage engine AND covered by an Engine.Sync — the caller's
// barrier is what makes dropping their records safe. Identified by id,
// never by a timestamp bound: a re-driven recovered commit can be logged
// concurrently with an apply tick, carrying an old ct the tick's bound
// already covers, and a bound comparison would mark it applied before the
// engine ever saw it. Only compaction consults the marks — a committed
// record may leave the log once the transaction is both applied and
// replicated everywhere — and this is the one place that triggers it, so
// no rewrite can run ahead of the barrier (or on a delivery goroutine).
func (l *Log) MarkApplied(txIDs []uint64) {
	l.sh.Mu.Lock()
	for _, id := range txIDs {
		if c, ok := l.committed[id]; ok {
			c.applied = true
		}
	}
	compact := l.compat >= 0 && l.appends >= l.compat
	l.sh.Mu.Unlock()
	if compact {
		l.Compact()
	}
}

// releasableLocked reports whether a committed record is no longer needed:
// applied to the engine and covered by every peer DC's cursor.
func (l *Log) releasableLocked(c *CommittedTx) bool {
	if !c.applied {
		return false
	}
	for dc := 0; dc < l.numDCs; dc++ {
		if dc == l.selfDC {
			continue
		}
		if c.CT > l.cursor[dc] {
			return false
		}
	}
	return true
}

// Committed returns the retained committed transactions in commit-timestamp
// order. At recovery the server replays them into the storage engine
// (deduplicating against what the engine already holds) before serving.
func (l *Log) Committed() []*CommittedTx {
	l.sh.Mu.Lock()
	out := make([]*CommittedTx, 0, len(l.committed))
	for _, c := range l.committed {
		out = append(out, c)
	}
	l.sh.Mu.Unlock()
	sortCommitted(out)
	return out
}

// Prepared returns the retained prepares without an outcome. After a
// restart these are doomed unless a coordinator re-drives their CommitTx.
func (l *Log) Prepared() []*PreparedTx {
	l.sh.Mu.Lock()
	defer l.sh.Mu.Unlock()
	out := make([]*PreparedTx, 0, len(l.prepared))
	for _, p := range l.prepared {
		out = append(out, p)
	}
	return out
}

// CoordPending returns the unresolved coordinator decisions: transactions
// acknowledged to clients whose cohorts have not all confirmed a durable
// COMMIT record. After a restart the server re-sends their CommitTx.
func (l *Log) CoordPending() []*CoordTx {
	l.sh.Mu.Lock()
	defer l.sh.Mu.Unlock()
	out := make([]*CoordTx, 0, len(l.coord))
	for _, c := range l.coord {
		out = append(out, c)
	}
	return out
}

// UnreplicatedTail returns the retained committed transactions above the
// peer DC's cursor, in commit-timestamp order — the tail a restarted
// server re-sends so the replicas reconverge.
func (l *Log) UnreplicatedTail(dc int) []*CommittedTx {
	if dc < 0 || dc >= l.numDCs {
		return nil
	}
	l.sh.Mu.Lock()
	cur := l.cursor[dc]
	out := make([]*CommittedTx, 0, 8)
	for _, c := range l.committed {
		if c.CT > cur {
			out = append(out, c)
		}
	}
	l.sh.Mu.Unlock()
	sortCommitted(out)
	return out
}

func sortCommitted(txs []*CommittedTx) {
	sort.Slice(txs, func(i, j int) bool {
		if txs[i].CT != txs[j].CT {
			return txs[i].CT < txs[j].CT
		}
		return txs[i].TxID < txs[j].TxID
	})
}

// Compact rewrites the log from retained state — prepares, unreleased
// committed transactions, unresolved coordinator decisions, cursors —
// dropping everything whose lifecycle has run its course. Same discipline
// as the engines' compactions (temp file, fsync, atomic rename, directory
// sync, the write handle carries over), except that appends keep flowing
// into the old file while the snapshot is written and fsynced: sh.Mu is
// held only to take the snapshot and, at the end, to copy over what was
// appended meanwhile and swap the handle. Replaying those records on top
// of the snapshot rebuilds the same state, because every record is an
// idempotent transition keyed by transaction id or DC. A log without a
// file only drops what is releasable.
func (l *Log) Compact() {
	l.flushMu.Lock()
	ready := l.compactFlushLocked()
	l.flushMu.Unlock()
	for _, w := range ready {
		w.fn()
	}
}

// retained is the snapshot a compaction rewrites. The transaction structs
// are immutable once logged; decisions are copied because acks edit them.
type retained struct {
	maxSeq    uint64
	prepared  []*PreparedTx
	committed []*CommittedTx
	coord     []CoordTx
	cursor    []hlc.Timestamp
}

func (l *Log) compactFlushLocked() []lazyWaiter {
	l.sh.Mu.Lock()
	if l.stopped {
		l.sh.Mu.Unlock()
		return nil // a straggler trigger after Close must not resurrect the file
	}
	for id, c := range l.committed {
		if l.releasableLocked(c) {
			delete(l.committed, id)
		}
	}
	if l.dir == "" {
		l.appends = 0 // nothing to rewrite
		l.sh.Mu.Unlock()
		return nil
	}
	snap := retained{maxSeq: l.maxSeq, cursor: append([]hlc.Timestamp(nil), l.cursor...)}
	for _, p := range l.prepared {
		snap.prepared = append(snap.prepared, p)
	}
	for _, c := range l.committed {
		snap.committed = append(snap.committed, c)
	}
	for _, c := range l.coord {
		snap.coord = append(snap.coord, CoordTx{TxID: c.TxID, CT: c.CT, Cohorts: c.Cohorts})
	}
	old, mark, marked := l.sh.F, l.sh.Size, l.appends
	// A frozen log drops appends instead of writing them, so there would be
	// nothing to carry over: keep it locked until the rewrite replaces it.
	frozen := l.sh.Failed
	if !frozen {
		l.sh.Mu.Unlock()
	}

	path := l.path()
	tmp := path + ".tmp"
	// O_RDWR: the file becomes the append handle, which the next
	// compaction reads its carry-over from.
	f, err := l.fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	var written int64
	if err == nil {
		written, err = snap.writeTo(f)
	}
	if err == nil {
		// The fresh file's zero-filled region rides the one fsync the
		// rewrite pays anyway; the handle stays positioned at the end of
		// the snapshot, where the carry-over and then the appends land.
		err = writeZeros(f, written, chunk)
	}
	if err == nil {
		err = f.Sync()
	}
	if !frozen {
		l.sh.Mu.Lock()
	}
	// sh.Mu is held from here to the swap; abort leaves the old file, and
	// the state the next attempt will snapshot, in place.
	abort := func(err error) []lazyWaiter {
		l.sh.Mu.Unlock()
		if err != nil {
			l.recordErr(fmt.Errorf("txlog: compact: %w", err))
		}
		if f != nil {
			_ = f.Close()
			_ = l.fs.Remove(tmp)
		}
		return nil
	}
	if err != nil {
		return abort(err)
	}
	if l.stopped || (l.sh.Failed && !frozen) {
		// Closed, or frozen by a failed append (already recorded), while
		// the snapshot was being written: a repair's next attempt takes
		// the locked path.
		return abort(nil)
	}
	// Carry over the records appended since the snapshot, unsynced: their
	// waiters hold LSNs above it and are served by the next sync.
	tail := l.sh.Size - mark
	if tail > 0 {
		_, err = io.Copy(f, io.NewSectionReader(old, mark, tail))
	}
	if err == nil {
		err = l.fs.Rename(tmp, path)
	}
	if err != nil {
		return abort(err)
	}
	// f now lives at path (the rename moved the inode), positioned at its
	// end — it becomes the append handle directly, with no reopen window.
	snapLSN := l.base + mark
	l.sh.F = f
	l.sh.Size = written + tail
	// A carry-over longer than the region ran past it, growing the file.
	l.filled = max(written+chunk, l.sh.Size)
	l.base = snapLSN - written // the carried-over records keep their LSNs
	l.sh.Failed = false        // the rewrite from retained state repairs a frozen log
	l.appends -= marked
	l.sh.Mu.Unlock()
	// Last close of an unlinked file: the filesystem frees its blocks now,
	// which takes milliseconds — so not under the append lock.
	_ = old.Close()
	// The snapshot is only as stable as the rename that put it in place.
	if derr := l.fs.SyncDir(l.dir); derr != nil {
		l.recordErr(fmt.Errorf("txlog: compact: sync dir: %w", derr))
		return nil
	}
	return l.advanceSynced(snapLSN)
}

// writeTo streams the snapshot record by record through a throwaway
// encoder and a buffered writer (the WAL engine's compaction discipline):
// encoding the whole retained state into one buffer would pin a
// rewrite-sized allocation for every burst of retained transactions.
func (r *retained) writeTo(f fsutil.File) (written int64, err error) {
	w := bufio.NewWriterSize(f, 1<<16)
	enc := wire.NewEncoder()
	emit := func(encode func(*wire.Encoder)) {
		if err != nil {
			return
		}
		enc.Reset()
		logrec.AppendFrame(enc, encode)
		if _, err = w.Write(enc.Bytes()); err == nil {
			written += int64(len(enc.Bytes()))
		}
	}
	// The sequence floor first: it outlives the records it was learned
	// from, so id uniqueness survives the rewrite dropping them.
	if r.maxSeq > 0 {
		emit(func(e *wire.Encoder) {
			e.Byte(recSeq)
			e.Uvarint(r.maxSeq)
		})
	}
	for _, p := range r.prepared {
		emit(func(e *wire.Encoder) { encodePrepare(e, p.TxID, p.PT, p.RST, p.SV, p.Writes) })
	}
	for _, c := range r.committed {
		// A committed transaction is rewritten as its prepare + commit
		// pair, so recovery rebuilds it by the same pairing rule as live
		// records.
		emit(func(e *wire.Encoder) { encodePrepare(e, c.TxID, c.CT, c.RST, c.SV, c.Writes) })
		emit(func(e *wire.Encoder) {
			e.Byte(recCommit)
			e.Uvarint(c.TxID)
			e.Timestamp(c.CT)
		})
	}
	for i := range r.coord {
		emit(func(e *wire.Encoder) { encodeCoordCommit(e, &r.coord[i]) })
	}
	for dc, upTo := range r.cursor {
		if upTo == 0 {
			continue
		}
		emit(func(e *wire.Encoder) {
			e.Byte(recCursor)
			e.Byte(uint8(dc))
			e.Timestamp(upTo)
		})
	}
	if err == nil {
		err = w.Flush()
	}
	return written, err
}

// fsyncLoop flushes appended records on a timer (interval policy).
func (l *Log) fsyncLoop() {
	defer l.wg.Done()
	ticker := time.NewTicker(fsyncPeriod)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			l.Sync()
		case <-l.stop:
			return
		}
	}
}

// Close stops the sync loop, forces the log to stable storage (a clean
// shutdown is fully durable whatever the policy), closes the file, and
// returns the first error any append, sync or compaction hit.
func (l *Log) Close() error {
	l.errMu.Lock()
	if l.closed {
		err := l.err
		l.errMu.Unlock()
		return err
	}
	l.closed = true
	l.errMu.Unlock()

	close(l.stop)
	l.wg.Wait()
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
