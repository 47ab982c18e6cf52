package txlog

import (
	"sort"
	"time"

	"wren/internal/hlc"
	"wren/internal/wire"
)

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

// decideLocked registers a decision logged (or recovered) now, with every
// cohort pending. Caller holds sh.Mu.
func (l *Log) decideLocked(txID uint64, ct hlc.Timestamp, cohorts []uint16) *CoordTx {
	c := &CoordTx{TxID: txID, CT: ct, Cohorts: cohorts,
		pending: make(map[uint16]struct{}, len(cohorts)), created: time.Now()}
	for _, p := range cohorts {
		c.pending[p] = struct{}{}
	}
	l.coord[txID] = c
	l.noteSeq(txID)
	return c
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
	defer l.sh.Mu.Unlock()
	if _, ok := l.prepared[c.TxID]; !ok {
		return false
	}
	delete(l.prepared, c.TxID)
	l.committed[c.TxID] = c
	l.appendLocked(func(e *wire.Encoder) { encodeCommit(e, c.TxID, c.CT) })
	return true
}

// LogDecided records a one-phase commit: p's PREPARE and, right behind it,
// its COMMIT at p.PT, appended back to back under one lock with no record
// between them. The transaction moves straight to the committed set as the
// returned CommittedTx (the caller's commit list shares it, as with
// LogCommit). The returned LSN is what a sync must cover before the cohort
// votes or installs (see the package contract); Withdraw undoes a commit
// whose sync failed.
func (l *Log) LogDecided(p *PreparedTx) (*CommittedTx, int64) {
	c := p.Committed(p.PT)
	l.sh.Mu.Lock()
	defer l.sh.Mu.Unlock()
	delete(l.prepared, p.TxID)
	l.committed[p.TxID] = c
	l.noteSeq(p.TxID)
	l.appendLocked(func(e *wire.Encoder) { encodePrepare(e, p.TxID, p.PT, p.RST, p.SV, p.Writes) })
	l.appendLocked(func(e *wire.Encoder) { encodeCommit(e, c.TxID, c.CT) })
	return c, l.endLocked()
}

// Withdraw takes back a one-phase commit whose sync failed, before anyone
// was told of it: the transaction leaves the committed set, so Repair's
// rewrite drops it, and an ABORT record behind its COMMIT keeps a recovery
// from replaying it. Like CoordAbort's RESOLVED, the record is not synced.
func (l *Log) Withdraw(txID uint64) {
	l.sh.Mu.Lock()
	defer l.sh.Mu.Unlock()
	if _, ok := l.committed[txID]; !ok {
		return
	}
	delete(l.committed, txID)
	l.appendLocked(func(e *wire.Encoder) { encodeAbort(e, txID) })
}

// CommitTS reports the commit timestamp of a committed transaction the log
// still retains: a one-phase cohort answers a client's termination probe
// from it after a restart.
func (l *Log) CommitTS(txID uint64) (hlc.Timestamp, bool) {
	l.sh.Mu.Lock()
	defer l.sh.Mu.Unlock()
	c, ok := l.committed[txID]
	if !ok {
		return 0, false
	}
	return c.CT, true
}

// LogCoordCommitSync records a coordinator commit decision — the record
// whose durability backs the client acknowledgement — and, under
// fsync=always, returns once a sync covers it and everything appended
// before it (this server's own PREPARE included). Concurrent commit
// collections share that sync like any other urgent waiters. Under the
// other policies the interval timer or Close makes the record stable later.
// Callers needing a durability statement consult Healthy afterwards, as
// with Sync, and send CommitTx only after this call so a cohort's
// CommitAck can never arrive before the decision is registered.
func (l *Log) LogCoordCommitSync(txID uint64, ct hlc.Timestamp, cohorts []uint16) {
	l.sh.Mu.Lock()
	c := l.decideLocked(txID, ct, append([]uint16(nil), cohorts...))
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
	l.appendLocked(func(e *wire.Encoder) { encodeSeq(e, upTo) })
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
	l.appendLocked(func(e *wire.Encoder) { encodeResolved(e, txID) })
}

// RedrivePending returns the unresolved commit decisions older than age,
// each with Cohorts narrowed to the partitions that have not yet
// acknowledged a durable outcome. The server periodically re-sends their
// CommitTx: a cohort that crashed between PrepareResp and CommitTx — or
// whose acknowledgement was lost — eventually receives the outcome even
// when this coordinator itself never restarts; after a restart it re-sends
// RedrivePending(0), every retained decision with all its cohorts.
func (l *Log) RedrivePending(age time.Duration) []*CoordTx {
	cutoff := time.Now().Add(-age)
	l.sh.Mu.Lock()
	defer l.sh.Mu.Unlock()
	var out []*CoordTx
	for _, c := range l.coord {
		if c.created.After(cutoff) || len(c.pending) == 0 {
			continue
		}
		snap := &CoordTx{TxID: c.TxID, CT: c.CT}
		for _, p := range c.Cohorts {
			if _, ok := c.pending[p]; ok {
				snap.Cohorts = append(snap.Cohorts, p)
			}
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
	l.appendLocked(func(e *wire.Encoder) { encodeResolved(e, txID) })
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
	l.appendLocked(func(e *wire.Encoder) { encodeAbort(e, txID) })
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
	SortCommitted(out)
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

// SortCommitted orders transactions by (commit timestamp, id): the apply,
// flush, recovery and replication order.
func SortCommitted(txs []*CommittedTx) {
	sort.Slice(txs, func(i, j int) bool {
		if txs[i].CT != txs[j].CT {
			return txs[i].CT < txs[j].CT
		}
		return txs[i].TxID < txs[j].TxID
	})
}
