package txlog

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"wren/internal/hlc"
	"wren/internal/obs"
	"wren/internal/store/fsutil"
	"wren/internal/store/logrec"
	"wren/internal/wire"
)

// defaultCompactThreshold is the number of appended records after which
// the log is rewritten from retained state.
const defaultCompactThreshold = 4096

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
	compact := l.appends >= l.compactAt
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
// encoder and a buffered writer: encoding the whole retained state into one buffer would pin a
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
		emit(func(e *wire.Encoder) { encodeSeq(e, r.maxSeq) })
	}
	for _, p := range r.prepared {
		emit(func(e *wire.Encoder) { encodePrepare(e, p.TxID, p.PT, p.RST, p.SV, p.Writes) })
	}
	for _, c := range r.committed {
		// A committed transaction is rewritten as its prepare + commit
		// pair, so recovery rebuilds it by the same pairing rule as live
		// records.
		emit(func(e *wire.Encoder) { encodePrepare(e, c.TxID, c.CT, c.RST, c.SV, c.Writes) })
		emit(func(e *wire.Encoder) { encodeCommit(e, c.TxID, c.CT) })
	}
	for i := range r.coord {
		emit(func(e *wire.Encoder) { encodeCoordCommit(e, &r.coord[i]) })
	}
	for dc, upTo := range r.cursor {
		if upTo > 0 {
			emit(func(e *wire.Encoder) { encodeCursor(e, dc, upTo) })
		}
	}
	if err == nil {
		err = w.Flush()
	}
	return written, err
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

func (l *Log) onErr(err error) { l.recordErr(fmt.Errorf("txlog: %w", err)) }

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
	l.appendLocked(func(e *wire.Encoder) { encodeSeq(e, l.maxSeq) })
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
