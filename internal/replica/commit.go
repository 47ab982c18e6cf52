package replica

import (
	"wren/internal/hlc"
	"wren/internal/sharding"
	"wren/internal/store"
	"wren/internal/transport"
	"wren/internal/txlog"
	"wren/internal/wire"
)

// prepareVote is one cohort's answer in the 2PC: a proposed commit
// timestamp, or a refusal (non-empty err) from a cohort whose durability
// is degraded.
type prepareVote struct {
	pt  hlc.Timestamp
	err string
}

// prepareCall is one committing transaction's wait for its votes, on
// behalf of the client's request reqID on from. A 2PC's votes go to ch,
// for its collection goroutine; seen (guarded by Runtime.mu) deduplicates
// them by request id: a duplicated or resent PrepareResp must not count
// twice, or the collection would finish before every real cohort
// answered. A one-phase commit (onePhase) has no collection: its cohort's
// one vote is the outcome, and handlePrepareResp answers the client.
type prepareCall struct {
	ch   chan prepareVote
	seen map[uint64]struct{}

	onePhase   bool
	from       transport.NodeID
	reqID      uint64
	selfCohort bool // the coordinator wrote: it installs the commit itself
}

// recordDecisionLocked remembers a commit outcome (ct, or zero for
// aborted/fenced) for duplicate-CommitReq dedupe and client termination
// probes. Generational rotation bounds the memory: when the current map
// fills it becomes the previous generation, so at least the last
// decisionGenSize outcomes stay resolvable. Caller holds r.mu.
func (r *Runtime) recordDecisionLocked(txID uint64, ct hlc.Timestamp) {
	if len(r.decisions) >= decisionGenSize {
		r.decisionsPrev = r.decisions
		r.decisions = make(map[uint64]hlc.Timestamp, decisionGenSize)
	}
	r.decisions[txID] = ct
}

// lookupDecisionLocked resolves a recorded outcome. Caller holds r.mu.
func (r *Runtime) lookupDecisionLocked(txID uint64) (hlc.Timestamp, bool) {
	if ct, ok := r.decisions[txID]; ok {
		return ct, true
	}
	ct, ok := r.decisionsPrev[txID]
	return ct, ok
}

// txApplied reports whether the storage engine already holds a version
// written by txID under key — the idempotence check recovery replay and
// resync application run before re-inserting a transaction's writes.
// Transaction ids embed the DC and partition, so a TxID match is exact.
func (r *Runtime) txApplied(key string, txID uint64) bool {
	return r.st.ReadVisible(key, func(v *store.Version) bool { return v.TxID == txID }) != nil
}

// goAsync runs fn on a tracked goroutine unless the server is draining.
// The commit path uses it for the 2PC response collection and for the
// waits on a transaction-log sync, which must not block a delivery link.
// (Reads do not need it: their fan-in is a completion counter, not a
// parked goroutine.)
func (r *Runtime) goAsync(fn func()) {
	r.drainMu.Lock()
	if r.draining {
		r.drainMu.Unlock()
		return
	}
	r.reqWG.Add(1)
	r.drainMu.Unlock()
	go func() {
		defer r.reqWG.Done()
		fn()
	}()
}

// commit runs the coordinator side of the two-phase commit (Algorithm 2
// lines 17–28) for a transaction under snap: each cohort's PrepareReq
// carries the snapshot and the proposal floor ht. A write set on one
// partition commits in one phase: its cohort's proposal is the maximum
// over one proposal, so the cohort decides (PrepareReq.Decide) and its vote
// finishes the commit here (handlePrepareResp), with no decision record,
// CommitTx or CommitAck.
func (r *Runtime) commit(from transport.NodeID, m *wire.CommitReq, snap Snapshot, ht hlc.Timestamp) {
	if len(m.Writes) == 0 {
		// An empty CommitReq is a client's explicit context release: the
		// paper's COMMIT is only invoked when WS ≠ ∅, and the clients send
		// none for a read-only transaction (the release rule in package
		// session's comment). handleCommitReq already dropped the context.
		// Admitted even in read-only degraded mode — nothing here needs
		// durability.
		r.Send(from, &wire.CommitResp{ReqID: m.ReqID, CT: 0})
		return
	}
	if err := r.Healthy(); err != nil {
		// Read-only admission: the durability this acknowledgement would
		// promise cannot be delivered, so the write is refused with a
		// typed error instead of being accepted into a degraded log.
		r.Send(from, &wire.CommitResp{ReqID: m.ReqID, Code: wire.CommitErrReadOnly, Err: err.Error()})
		return
	}

	type cohortWrites struct {
		partition int
		writes    []wire.KV
	}
	byPartition := make(map[int][]wire.KV)
	for _, kv := range m.Writes {
		p := sharding.PartitionOf(kv.Key, r.cfg.NumPartitions)
		byPartition[p] = append(byPartition[p], kv)
	}
	cohorts := make([]cohortWrites, 0, len(byPartition))
	for p, ws := range byPartition {
		cohorts = append(cohorts, cohortWrites{partition: p, writes: ws})
	}
	_, selfCohort := byPartition[r.cfg.Partition]

	call := &prepareCall{onePhase: len(cohorts) == 1, from: from, reqID: m.ReqID, selfCohort: selfCohort}
	if !call.onePhase {
		call.ch = make(chan prepareVote, len(cohorts))
		call.seen = make(map[uint64]struct{}, len(cohorts))
	}
	r.mu.Lock()
	if ct, decided := r.lookupDecisionLocked(m.TxID); decided {
		// A duplicated or resent CommitReq for a transaction this
		// coordinator already decided: answer with the same outcome.
		// Re-running the 2PC would commit the write set a second time at a
		// new timestamp — or, after a "not committed" probe verdict fenced
		// the id, commit a transaction the client was told had failed.
		r.mu.Unlock()
		if ct > 0 {
			r.Send(from, &wire.CommitResp{ReqID: m.ReqID, CT: ct})
		} else {
			r.Send(from, &wire.CommitResp{ReqID: m.ReqID, Code: wire.CommitErrAborted,
				Err: "transaction aborted (fenced by termination probe)"})
		}
		return
	}
	if _, inFlight := r.pendingPrepare[m.TxID]; inFlight {
		// Duplicate of an in-flight commit: the original's collection will
		// answer the client; a second collection would double-prepare.
		r.mu.Unlock()
		return
	}
	if !r.admitClient(from) {
		// Per-connection admission: shed BEFORE any 2PC state exists.
		// Dedupe ran first so duplicates of decided transactions are
		// still answered cheaply rather than bounced.
		r.mu.Unlock()
		r.shedClient(from, m.ReqID)
		return
	}
	r.pendingPrepare[m.TxID] = call
	r.mu.Unlock()

	for _, c := range cohorts {
		r.Send(transport.ServerID(r.cfg.DC, c.partition), &wire.PrepareReq{
			ReqID: r.reqSeq.Add(1), TxID: m.TxID, LT: snap.LT, RT: snap.RT, HT: ht, SV: snap.SV,
			Writes: c.writes, Stab: r.proto.StampStable(), Decide: call.onePhase,
		})
	}
	if call.onePhase {
		return
	}

	r.goAsync(func() {
		defer r.releaseClient(from)
		var ct hlc.Timestamp
		var refusal string
		for range cohorts {
			select {
			case v := <-call.ch:
				if v.err != "" && refusal == "" {
					refusal = v.err
				}
				if v.pt > ct {
					ct = v.pt
				}
			case <-r.stop:
				return
			}
		}
		// The pendingPrepare entry stays registered until the outcome is
		// decided (logged or aborted): TxStatusReq answers "not committed"
		// only when a transaction is in NEITHER pendingPrepare nor the
		// decision log, so the in-flight window must never show a gap — a
		// cohort that restarted mid-2PC probes for exactly this state, and
		// a false final verdict would abort a prepare this decision is
		// about to commit. The outcome is recorded in the same critical
		// section for the same reason: a duplicate CommitReq between the
		// delete and the record would slip past both dedupe checks.
		finish := func(outcome hlc.Timestamp) {
			r.mu.Lock()
			delete(r.pendingPrepare, m.TxID)
			r.recordDecisionLocked(m.TxID, outcome)
			r.mu.Unlock()
		}
		abort := func(errText string) {
			finish(0)
			for _, c := range cohorts {
				r.Send(transport.ServerID(r.cfg.DC, c.partition), &wire.CommitTx{TxID: m.TxID, CT: 0})
			}
			r.answerCommit(call, 0, errText)
		}
		if refusal != "" {
			// A degraded cohort refused its prepare: abort the 2PC (zero
			// CT releases the healthy cohorts' prepares) and surface the
			// typed refusal to the client.
			abort(refusal)
			return
		}
		// The commit decision is logged and made stable BEFORE CommitTx
		// leaves and BEFORE the client ack: the ack's durability promise is
		// this record, and holding CommitTx back until it holds means a
		// failed append/fsync can still abort the whole 2PC cleanly — no
		// cohort has committed yet.
		parts := make([]uint16, 0, len(cohorts))
		for _, c := range cohorts {
			parts = append(parts, uint16(c.partition))
		}
		// INVARIANT (client ack follows a sync covering every cohort's
		// PREPARE and the decision): remote cohorts synced before they
		// voted; this sync covers the decision and, ahead of it in the same
		// log, this server's own PREPARE. Concurrent commit collections
		// share it (see txlog.LogCoordCommitSync).
		r.tl.LogCoordCommitSync(m.TxID, ct, parts)
		if err := r.tl.Healthy(); err != nil {
			// The decision never became durable: withdraw it (so a recovery
			// cannot re-drive a commit the client was told failed), abort
			// the cohorts, refuse the client.
			r.tl.CoordAbort(m.TxID)
			abort(err.Error())
			return
		}
		finish(ct)
		for _, c := range cohorts {
			out := &wire.CommitTx{TxID: m.TxID, CT: ct}
			out.Stab = r.proto.StampStable()
			r.Send(transport.ServerID(r.cfg.DC, c.partition), out)
		}
		r.answerCommit(call, ct, "")
	})
}

// answerCommit gives the client of call its commit's outcome: ct, or the
// typed refusal when refusal is set.
func (r *Runtime) answerCommit(call *prepareCall, ct hlc.Timestamp, refusal string) {
	if refusal != "" {
		r.Send(call.from, &wire.CommitResp{ReqID: call.reqID, Code: wire.CommitErrReadOnly, Err: refusal})
		return
	}
	if !call.selfCohort {
		// A coordinator that wrote nothing gets no CommitTx (nor installs a
		// one-phase commit), and its version clock would sit below ct until
		// the next tick, holding the DC's stable time under a commit its
		// own client is about to be told of: treat the outcome as the event
		// it is.
		r.proto.ObserveCommitTS(ct)
		r.KickApply()
	}
	r.txCommitted.Inc()
	r.Send(call.from, &wire.CommitResp{ReqID: call.reqID, CT: ct})
}

// Prepare runs the cohort side of the 2PC (Algorithm 3 lines 13–19):
// propose a commit timestamp strictly past ht and register the prepare.
// The protocol passes ht already folded over everything the client saw;
// the unified log record keeps whichever snapshot fields the message
// carried (Wren's RT scalar, Cure's SV vector).
//
// The proposal and its registration in the pending list happen atomically
// under mu, the same mutex ApplyTick holds while computing its apply
// upper bound. Without that, a pass could interleave between TickPast and
// the registration, compute an upper bound at or above the proposal
// (TickPast has already advanced the clock), publish it as stable — and
// the transaction would later commit INSIDE the stable region, applied
// after readers were already served without it: the causal/atomic
// violations TestTCCConformance* exhibited under CPU starvation, where the
// preemption window between the two statements stretched to milliseconds.
func (r *Runtime) Prepare(from transport.NodeID, m *wire.PrepareReq, ht hlc.Timestamp) {
	if m.Decide {
		r.decide(from, m, ht)
		return
	}
	if err := r.Healthy(); err != nil {
		// Degraded durability: refuse, so the coordinator aborts instead
		// of committing a write set this cohort cannot log.
		r.Send(from, &wire.PrepareResp{ReqID: m.ReqID, TxID: m.TxID, Err: err.Error()})
		return
	}
	r.mu.Lock()
	pt := r.Clock.TickPast(ht)
	p := &txlog.PreparedTx{TxID: m.TxID, PT: pt, RST: m.RT, SV: m.SV, Writes: m.Writes}
	r.prepared[m.TxID] = p
	r.mu.Unlock()
	resp := &wire.PrepareResp{ReqID: m.ReqID, TxID: m.TxID, PT: pt}
	resp.Stab = r.proto.StampStable()
	r.tl.LogPrepare(p)
	// INVARIANT (client ack follows a sync covering every cohort's
	// PREPARE): a vote for a REMOTE coordinator leaves only once the record
	// is stable — on a tracked goroutine, so the fsync does not stall the
	// delivery link. This server's own coordinator needs no sync of its
	// own: the record sits in the same log ahead of the decision, whose
	// sync in Commit covers both.
	if r.tl.SyncOnAppend() && from != r.id {
		r.goAsync(func() {
			r.tl.Sync()
			r.Send(from, r.checkedPrepareResp(resp))
		})
		return
	}
	r.Send(from, r.checkedPrepareResp(resp))
}

// decide runs the cohort side of a one-phase commit (see commit): the
// write set is the whole transaction's, so the proposal is the commit
// timestamp, proposed and registered in the pending list as Prepare does.
// The PREPARE and COMMIT records are appended back to back; the vote —
// which is the outcome — and the move to the commit list both wait for
// the one sync that covers the pair, and a failed sync withdraws the
// commit (see the package comment). The outcome is recorded with the
// coordinator's decisions: a duplicated request is answered from it, and
// so is a client's termination probe.
func (r *Runtime) decide(from transport.NodeID, m *wire.PrepareReq, ht hlc.Timestamp) {
	refuse := func(errText string) {
		r.Send(from, &wire.PrepareResp{ReqID: m.ReqID, TxID: m.TxID, Err: errText})
	}
	r.mu.Lock()
	if _, inFlight := r.prepared[m.TxID]; inFlight {
		r.mu.Unlock() // the first copy votes once its sync returns
		return
	}
	ct, decided := r.lookupDecisionLocked(m.TxID)
	if !decided {
		// An outcome rotated out of memory, or from before a restart. The
		// log holds an unsynced commit only while it is pending (above).
		ct, decided = r.tl.CommitTS(m.TxID)
	}
	if decided {
		r.mu.Unlock()
		if ct == 0 {
			refuse("transaction aborted (fenced by termination probe)")
		} else {
			r.Send(from, &wire.PrepareResp{ReqID: m.ReqID, TxID: m.TxID, PT: ct})
		}
		return
	}
	if err := r.Healthy(); err != nil {
		r.recordDecisionLocked(m.TxID, 0)
		r.mu.Unlock()
		refuse(err.Error())
		return
	}
	pt := r.Clock.TickPast(ht)
	p := &txlog.PreparedTx{TxID: m.TxID, PT: pt, RST: m.RT, SV: m.SV, Writes: m.Writes}
	r.prepared[m.TxID] = p
	// A copy of this prepare recovered from a previous life never voted
	// (its COMMIT did not reach the disk): this one supersedes it.
	delete(r.recovered, m.TxID)
	r.mu.Unlock()
	// Logged outside mu, as Prepare logs: until settle the pending entry
	// answers duplicates and probes, and holds the apply bound below pt.
	c, lsn := r.tl.LogDecided(p)

	settle := func() {
		if err := r.tl.Healthy(); err != nil {
			// Withdrawn while the pending prepare still holds the apply
			// bound below pt, so no pass or rewind has taken the commit.
			r.tl.Withdraw(m.TxID)
			r.mu.Lock()
			delete(r.prepared, m.TxID)
			r.recordDecisionLocked(m.TxID, 0)
			r.mu.Unlock()
			refuse(err.Error())
			r.KickApply()
			return
		}
		r.proto.ObserveCommitTS(pt)
		r.mu.Lock()
		delete(r.prepared, m.TxID)
		r.committed = append(r.committed, c)
		r.recordDecisionLocked(m.TxID, pt)
		r.mu.Unlock()
		resp := &wire.PrepareResp{ReqID: m.ReqID, TxID: m.TxID, PT: pt}
		resp.Stab = r.proto.StampStable()
		r.Send(from, resp)
		r.KickApply()
	}
	if r.tl.SyncOnAppend() {
		r.goAsync(func() {
			r.syncLog(lsn)
			settle()
		})
		return
	}
	settle()
}

// checkedPrepareResp downgrades a prepare proposal to a refusal when the
// append (or fsync) backing it failed: the proposal claims the write set
// is recoverable here, and a vote whose own record never became durable
// must not be cast — only LATER requests being refused would let this one
// transaction commit on a broken promise.
func (r *Runtime) checkedPrepareResp(resp *wire.PrepareResp) *wire.PrepareResp {
	if err := r.tl.Healthy(); err != nil {
		return &wire.PrepareResp{ReqID: resp.ReqID, TxID: resp.TxID, Err: err.Error()}
	}
	return resp
}

func (r *Runtime) handlePrepareResp(from transport.NodeID, m *wire.PrepareResp) {
	r.ObserveStable(from, m.Stab)
	r.mu.Lock()
	call := r.pendingPrepare[m.TxID]
	if call != nil && call.onePhase {
		// The vote is the outcome: the entry goes and the outcome is
		// recorded in one critical section, as the collection does.
		ct := m.PT
		if m.Err != "" {
			ct = 0
		}
		delete(r.pendingPrepare, m.TxID)
		r.recordDecisionLocked(m.TxID, ct)
		r.mu.Unlock()
		// The outcome is durable at the cohort, which voted after its
		// sync, so the coordinator has nothing to log or sync.
		r.answerCommit(call, ct, m.Err)
		r.releaseClient(call.from)
		return
	}
	if call != nil {
		if _, dup := call.seen[m.ReqID]; dup {
			call = nil // duplicated vote: count each cohort's answer once
		} else {
			call.seen[m.ReqID] = struct{}{}
		}
	}
	r.mu.Unlock()
	if call == nil {
		return
	}
	select {
	case call.ch <- prepareVote{pt: m.PT, err: m.Err}:
	default:
		// The channel holds one slot per cohort and votes deduplicate by
		// request id above, so it cannot fill — but a delivery goroutine
		// must never block on the commit path regardless.
	}
}

// handleCommitTx implements Algorithm 3 lines 20–24: move the transaction
// from the pending list to the commit list under its final timestamp. A
// zero CT aborts instead (degraded-cohort refusal). The outcome is logged
// and acknowledged back to the coordinator, which releases the
// coordinator's logged decision once every cohort holds the outcome
// durably; re-driven outcomes after a restart resolve recovered prepares,
// and outcomes already known deduplicate to just the acknowledgement.
// Committed TxStatusResp verdicts flow through the same path.
//
// Either outcome can make something newly stable — the prepare stops
// holding the apply bound down — so both end by asking for an apply pass:
// the commit is installed now, not at the next ΔR tick.
func (r *Runtime) handleCommitTx(from transport.NodeID, m *wire.CommitTx) {
	defer r.KickApply()
	if m.CT == 0 {
		r.ObserveStable(from, m.Stab)
		r.mu.Lock()
		delete(r.prepared, m.TxID)
		delete(r.recovered, m.TxID)
		r.mu.Unlock()
		r.tl.LogAbort(m.TxID)
		return
	}
	// The commit timestamp first: what the carrier has seen is then rarely
	// news, and the kick at the end is the only one this message costs.
	r.proto.ObserveCommitTS(m.CT)
	r.ObserveStable(from, m.Stab)
	r.mu.Lock()
	p, ok := r.prepared[m.TxID]
	delete(r.prepared, m.TxID)
	if rp, recovered := r.recovered[m.TxID]; recovered && !ok {
		// A re-driven outcome for a prepare recovered from the txlog: the
		// client was acknowledged in a previous life; commit it now.
		p, ok = rp.tx, true
	}
	// A recovered copy of a live prepare (the coordinator's CommitReq was
	// resent across a restart) goes with it, or a later termination probe
	// would commit the write set a second time.
	delete(r.recovered, m.TxID)
	if ok {
		// Logged before a pass can install it: a stream's rewind reads the
		// log, and a commit it missed below what it shipped would never
		// reach the peer (see the package comment).
		c := p.Committed(m.CT)
		r.tl.LogCommit(c)
		r.committed = append(r.committed, c)
	}
	r.mu.Unlock()
	// INVARIANT (CommitAck follows a sync covering the COMMIT record): the
	// ack states "outcome durable here", and all it does is release the
	// coordinator's retained decision — so it does not pay for an fsync but
	// rides, as a lazy waiter, on the next sync this log runs for anyone
	// (the lifecycle tick flushes an idle log well inside redriveAfter). It
	// is never sent when the append or a sync backing it failed: withholding
	// it keeps the decision pending, to be re-driven rather than resolved on
	// a broken promise. DUPLICATE outcomes wait the same way: a re-driven
	// CommitTx can arrive while the first copy's record is still unsynced.
	ack := &wire.CommitAck{TxID: m.TxID, Partition: uint16(r.cfg.Partition)}
	r.tl.AfterSync(func() {
		if r.tl.Healthy() == nil {
			r.Send(from, ack)
		}
	})
}

// handleCommitAck releases the coordinator's logged commit decision once
// the acknowledging cohort — and eventually all of them — holds the
// outcome durably.
func (r *Runtime) handleCommitAck(m *wire.CommitAck) {
	r.tl.CoordAck(m.TxID, m.Partition)
}

// handleTxStatusReq answers a 2PC-termination probe from the
// coordinator's decisions. "No decision retained" is a final abort
// verdict for a cohort still holding the prepare — either the client was
// never acknowledged, or the decision was resolved, which requires that
// very cohort's durable-commit ack, contradicting a still-dangling
// prepare — UNLESS the 2PC is still collecting votes: then the outcome is
// genuinely undecided (a slow sibling cohort can stall it past the probe
// grace) and the coordinator stays silent, leaving the prober to retry.
//
// Clients send the same probe (with a non-zero ReqID) after a commit
// times out: to the coordinator, or for a one-phase commit to its cohort,
// which decided it. For them the in-memory decision record answers too —
// it covers resolved decisions the txlog no longer retains — and so does
// the log's committed set, which is what a one-phase cohort has after its
// own restart. A prepare still in the pending list is undecided: silence.
// Otherwise the answer is "not committed", and it FENCES the transaction
// id: the verdict licenses the client to re-drive its write set on another
// coordinator, so a delayed CommitReq or one-phase PrepareReq surfacing
// later must find the id already aborted. A prepare recovered without its
// outcome is aborted with it: if it was a one-phase commit's, its COMMIT
// never reached the disk and it never voted.
func (r *Runtime) handleTxStatusReq(from transport.NodeID, m *wire.TxStatusReq) {
	ct, ok := r.tl.CoordDecision(m.TxID)
	if !ok {
		abort := false
		r.mu.Lock()
		if c, decided := r.lookupDecisionLocked(m.TxID); decided {
			ct, ok = c, c > 0
		} else if r.pendingPrepare[m.TxID] != nil || r.prepared[m.TxID] != nil {
			r.mu.Unlock()
			return
		} else if ct, ok = r.tl.CommitTS(m.TxID); !ok && m.ReqID != 0 {
			r.recordDecisionLocked(m.TxID, 0)
			_, abort = r.recovered[m.TxID]
			delete(r.recovered, m.TxID)
		}
		r.mu.Unlock()
		if abort {
			r.tl.LogAbort(m.TxID)
		}
	}
	r.Send(from, &wire.TxStatusResp{ReqID: m.ReqID, TxID: m.TxID, CT: ct, Committed: ok})
}

// handleTxStatusResp settles a recovered prepare: a committed verdict
// flows through the normal commit path (including the durable-commit ack
// back to the coordinator); a not-committed verdict finally aborts it.
func (r *Runtime) handleTxStatusResp(from transport.NodeID, m *wire.TxStatusResp) {
	if m.Committed {
		r.handleCommitTx(from, &wire.CommitTx{TxID: m.TxID, CT: m.CT})
		return
	}
	r.mu.Lock()
	_, ok := r.recovered[m.TxID]
	delete(r.recovered, m.TxID)
	r.mu.Unlock()
	if ok {
		r.tl.LogAbort(m.TxID)
	}
}
