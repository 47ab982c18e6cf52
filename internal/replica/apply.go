package replica

import (
	"time"

	"wren/internal/hlc"
	"wren/internal/store"
	"wren/internal/transport"
	"wren/internal/txlog"
	"wren/internal/wire"
)

// applyLoop is the apply goroutine: every ΔR — the idle fallback — and
// whenever it is kicked it runs an apply pass and ships what the passes
// queued for the other DCs. It is the only shipper while the server runs,
// which is what keeps the batches on each link in commit-timestamp order.
func (r *Runtime) applyLoop() {
	defer r.wg.Done()
	ticker := time.NewTicker(r.cfg.ApplyInterval)
	defer ticker.Stop()
	// shipped: a batch left since the last tick, so the peers' version
	// vectors moved without a heartbeat (Algorithm 4 line 20 heartbeats
	// only an idle partition).
	shipped := false
	for {
		select {
		case <-ticker.C:
			r.ApplyTick()
			r.ship(!shipped)
			shipped = false
		case <-r.kick:
			r.kicked.Store(false)
			r.ApplyTick()
			shipped = r.ship(false) || shipped
		case <-r.stop:
			return
		}
	}
}

// KickApply wakes the apply goroutine to run a pass (and ship) now. It
// takes no lock and never waits, so every delivery handler — the read
// path's included — may call it.
func (r *Runtime) KickApply() {
	if r.kicked.Load() || r.kicked.Swap(true) {
		return
	}
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// ApplyTick runs one apply pass — Algorithm 4 lines 5–21 without the
// sends: install every committed transaction at or below the safe bound,
// then publish the bound as the local version clock — and returns once it
// has run. It is the ONE implementation behind every trigger. The apply
// goroutine runs it on its ΔR tick and whenever an event that can make
// something newly stable kicked it (KickApply: a cohort's CommitTx, a
// coordinator's decision, a replicated-in batch, news of a commit on any
// intra-DC message); Stop runs it for the final flush, and a Cure slice
// read runs it before it parks. The rules, whoever runs it:
//
//   - A stable time MUST NOT be published before every version at or below
//     it is in the engine: PutBatch, THEN VV.Advance.
//   - The bound MUST be computed under mu, the mutex Prepare proposes
//     under, and MUST pin the HLC (Protocol.ApplyBound), so that no later
//     prepare can commit inside the published region.
//   - Passes MUST serialize on applyMu (see Runtime.applyMu).
//   - A pass MUST NOT send or sync: its Replicate batches are queued for
//     ship, which the apply goroutine runs after its own pass and at the
//     latest on its next tick, and the engine write does not wait for the
//     disk on this path.
//
// Every fold downstream of a pass is a max-merge, so passes run twice, late
// or out of order relative to the messages that carry their result are
// harmless.
func (r *Runtime) ApplyTick() {
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	r.mu.Lock()
	var ub hlc.Timestamp
	if len(r.prepared) > 0 {
		first := true
		for _, p := range r.prepared {
			if first || p.PT < ub {
				ub = p.PT
				first = false
			}
		}
		ub = ub.Prev()
	} else {
		// No pending prepare: the bound follows the protocol's clock
		// reading, which also pins the HLC so any later prepare proposes
		// strictly above ub — otherwise a commit could land at a timestamp
		// already declared stable.
		ub = r.proto.ApplyBound()
	}
	if local := r.VV.Load(r.cfg.DC); ub < local {
		ub = local
	}

	var apply []*txlog.CommittedTx
	if len(r.committed) > 0 {
		rest := r.committed[:0]
		for _, c := range r.committed {
			if c.CT <= ub {
				apply = append(apply, c)
			} else {
				rest = append(rest, c)
			}
		}
		r.committed = rest
	}
	r.mu.Unlock()

	if len(apply) > 0 {
		r.install(apply)
	}
	r.VV.Advance(r.cfg.DC, ub)
	r.proto.AfterInstall()
}

// install writes one pass's transactions to the engine in commit-timestamp
// order and, with other DCs to tell, queues them for ship as one Replicate
// per distinct timestamp (Algorithm 4 lines 8–16). The whole pass goes
// through one shard-grouped PutBatch, which appends to the engine's logs
// without waiting for the disk. Caller holds applyMu and publishes the
// bound afterwards.
func (r *Runtime) install(apply []*txlog.CommittedTx) {
	if len(apply) > 1 {
		txlog.SortCommitted(apply)
	}
	replicate := r.cfg.NumDCs > 1
	var batches []*wire.Replicate
	var puts []store.KV
	for i := 0; i < len(apply); {
		j := i
		var batch *wire.Replicate
		if replicate {
			batch = &wire.Replicate{SrcDC: uint8(r.cfg.DC), Partition: uint16(r.cfg.Partition)}
			batches = append(batches, batch)
		}
		for ; j < len(apply) && apply[j].CT == apply[i].CT; j++ {
			t := apply[j]
			puts = r.proto.AppendLocalPuts(puts, t, nil)
			if replicate {
				batch.Txs = append(batch.Txs, r.proto.ReplTxRecord(t))
			}
		}
		i = j
	}
	r.st.PutBatch(puts)
	// Exactly these transactions are now in the engine; the next release
	// barrier lets the log drop their records once replication confirms
	// them. Queued by id, not by bound: a re-driven recovered commit logged
	// concurrently can carry an old ct at or below it without being in this
	// batch.
	r.noteApplied(apply)
	if replicate {
		// Queued BEFORE the caller publishes the bound: ship reads the
		// published clock first and the queue second, so a heartbeat can
		// never overtake a batch at or below its timestamp.
		r.outMu.Lock()
		r.outbox = append(r.outbox, batches...)
		r.outMu.Unlock()
	}
}

// noteApplied queues transactions just written to the engine for the next
// release barrier.
func (r *Runtime) noteApplied(txs []*txlog.CommittedTx) {
	r.relMu.Lock()
	for _, t := range txs {
		r.unreleased = append(r.unreleased, t.TxID)
	}
	r.relMu.Unlock()
}

// release is the ONE place a log is allowed to forget a record, and it
// runs on the lifecycle loop (plus once in recovery and once at Stop),
// never on a delivery goroutine.
//
// INVARIANT (a committed record leaves the txlog only after an
// Engine.Sync that covers its apply; a ReplicateAck follows such a
// barrier): everything queued before the barrier started was written to
// the engine before it started, so Sync covers it. Only then are the
// local records marked applied — which is also the only trigger of the
// transaction log's compaction — and the peers' batches acknowledged. If
// the barrier fails, what it took off the queue is released never: an
// engine failure is sticky, the server is read-only from here, the
// records stay in this log and in the origins' (whose streams rewind to
// them), and a restart replays them into the engine.
func (r *Runtime) release() {
	r.relMu.Lock()
	ids, acks := r.unreleased, r.owedAcks
	r.unreleased, r.owedAcks = nil, make([]hlc.Timestamp, len(acks))
	r.relMu.Unlock()

	r.st.Sync()
	if r.st.Healthy() != nil {
		return
	}
	r.tl.MarkApplied(ids)
	if r.tl.Healthy() != nil {
		// A degraded replica's own log cannot vouch for anything; the
		// sender's retained tail resyncs us after the repair or a restart.
		return
	}
	for dc, upTo := range acks {
		if upTo > 0 {
			r.Send(transport.ServerID(dc, r.cfg.Partition), &wire.ReplicateAck{
				DC: uint8(r.cfg.DC), Partition: uint16(r.cfg.Partition), UpTo: upTo})
		}
	}
}

// flushCommitted force-applies every transaction still on the commit list
// to the storage engine, ignoring the apply upper bound. Only used during
// Stop: the server serves no more reads, and a durable engine must not
// close with acknowledged commits unapplied. The regular final ApplyTick
// usually drains the list already; this catches commit timestamps the
// local clock has not caught up to (for plain Cure in particular, whose
// bound follows the raw physical clock: under skew a timestamp assigned
// by a faster coordinator can sit above PhysicalNow() at shutdown).
//
// Replication is NOT retried here: a transaction flushed this way (or
// whose Replicate message was dropped by draining peers) persists locally
// without reaching the remote DCs in this life. Its record stays above
// every peer's replication cursor, so the next start's rewind re-sends it.
func (r *Runtime) flushCommitted() {
	r.mu.Lock()
	apply := r.committed
	r.committed = nil
	r.mu.Unlock()
	if len(apply) == 0 {
		return
	}
	txlog.SortCommitted(apply)
	var puts []store.KV
	for _, t := range apply {
		puts = r.proto.AppendLocalPuts(puts, t, nil)
	}
	r.st.PutBatch(puts)
	r.noteApplied(apply)
}
