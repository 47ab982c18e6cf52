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

// prepareCall collects PrepareResp messages for one committing transaction.
// seen (guarded by Runtime.mu) deduplicates votes by request id: a
// duplicated or resent PrepareResp must not count twice, or the collection
// would finish before every real cohort answered.
type prepareCall struct {
	ch   chan prepareVote
	seen map[uint64]struct{}
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

// NewTxID generates a globally unique transaction id: DC in the top byte,
// partition in the next two, then a local sequence number. Sequence
// numbers are drawn from blocks reserved in the transaction log, so on a
// durable backend ids stay unique across restarts too (an id can outlive
// this process in a cohort's log the moment it is handed out).
func (r *Runtime) NewTxID() uint64 {
	seq := r.txSeq.Add(1)
	if seq > r.seqLimit.Load() {
		r.reserveSeqs(seq)
	}
	return uint64(r.cfg.DC)<<56 | uint64(r.cfg.Partition)<<40 | seq
}

// reserveSeqs durably raises the sequence ceiling to a block past seq,
// unless a concurrent caller already did.
func (r *Runtime) reserveSeqs(seq uint64) {
	r.seqMu.Lock()
	defer r.seqMu.Unlock()
	if seq >= r.seqLimit.Load() {
		r.tl.ReserveSeqs(seq + seqBlockSize)
		r.seqLimit.Store(seq + seqBlockSize)
	}
}

// coordinatorOf decodes the coordinator server embedded in a transaction
// id (see NewTxID: DC in the top byte, partition in the next two).
func coordinatorOf(txID uint64) (dc, partition int) {
	return int(txID >> 56), int(uint16(txID >> 40))
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

// Commit runs the coordinator side of the two-phase commit (Algorithm 2
// lines 17–28). The protocol has already resolved the transaction's
// snapshot and supplies makePrepare, which renders a cohort's PrepareReq
// carrying that snapshot; the runtime fills ReqID, TxID and Writes.
func (r *Runtime) Commit(from transport.NodeID, m *wire.CommitReq, makePrepare func() *wire.PrepareReq) {
	if len(m.Writes) == 0 {
		// An empty CommitReq is a client's explicit context release: the
		// paper's COMMIT is only invoked when WS ≠ ∅, and the clients send
		// none for a read-only transaction (the release rule in package
		// core's comment). The protocol handler already dropped the context.
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

	call := &prepareCall{
		ch:   make(chan prepareVote, len(cohorts)),
		seen: make(map[uint64]struct{}, len(cohorts)),
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
	if !r.AdmitClient(from) {
		// Per-connection admission: shed BEFORE any 2PC state exists.
		// Dedupe ran first so duplicates of decided transactions are
		// still answered cheaply rather than bounced.
		r.mu.Unlock()
		r.Shed(from, m.ReqID)
		return
	}
	r.pendingPrepare[m.TxID] = call
	r.mu.Unlock()

	for _, c := range cohorts {
		req := makePrepare()
		req.ReqID = r.reqSeq.Add(1)
		req.TxID = m.TxID
		req.Writes = c.writes
		r.proto.StampStable(&req.Stab)
		r.Send(transport.ServerID(r.cfg.DC, c.partition), req)
	}

	r.goAsync(func() {
		defer r.ReleaseClient(from)
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
			r.Send(from, &wire.CommitResp{ReqID: m.ReqID, Code: wire.CommitErrReadOnly, Err: errText})
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
			r.proto.StampStable(&out.Stab)
			r.Send(transport.ServerID(r.cfg.DC, c.partition), out)
		}
		if !selfCohort {
			// A coordinator that wrote nothing gets no CommitTx, and its
			// version clock would sit below ct until the next tick, holding
			// the DC's stable time under a commit its own client is about
			// to be told of: treat the decision as the event it is.
			r.proto.ObserveCommitTS(ct)
			r.KickApply()
		}
		r.txCommitted.Inc()
		r.Send(from, &wire.CommitResp{ReqID: m.ReqID, CT: ct})
	})
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
	r.proto.StampStable(&resp.Stab)
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
// times out. For them the in-memory decision record answers too — it
// covers resolved decisions the txlog no longer retains — and a "not
// committed" answer FENCES the transaction id: the verdict licenses the
// client to re-drive its write set on another coordinator, so a delayed
// CommitReq surfacing later must find the id already aborted, never a
// fresh 2PC.
func (r *Runtime) handleTxStatusReq(from transport.NodeID, m *wire.TxStatusReq) {
	ct, ok := r.tl.CoordDecision(m.TxID)
	if !ok {
		r.mu.Lock()
		if c, decided := r.lookupDecisionLocked(m.TxID); decided && c > 0 {
			ct, ok = c, true
		}
		if !ok {
			if _, inFlight := r.pendingPrepare[m.TxID]; inFlight {
				r.mu.Unlock()
				return
			}
			if m.ReqID != 0 {
				r.recordDecisionLocked(m.TxID, 0)
			}
		}
		r.mu.Unlock()
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
