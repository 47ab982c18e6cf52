package replica

import (
	"errors"
	"time"

	"wren/internal/hlc"
	"wren/internal/store"
	"wren/internal/transport"
	"wren/internal/txlog"
	"wren/internal/wire"
)

// ship sends the queued Replicate batches to every other DC and, when
// asked to and there was none, a heartbeat instead; it reports whether
// batches left. Only the apply goroutine calls it (and Stop, after that
// goroutine exited): SendBounded may back off, which a delivery handler
// must not, and one shipper keeps each link in commit-timestamp order.
func (r *Runtime) ship(heartbeat bool) bool {
	if r.cfg.NumDCs == 1 {
		return false
	}
	// The clock before the queue: every batch at or below ts is already
	// shipped or in the queue taken next (see install).
	ts := r.VV.Load(r.cfg.DC)
	r.outMu.Lock()
	batches := r.outbox
	r.outbox = nil
	r.outMu.Unlock()
	if len(batches) == 0 && !heartbeat {
		return false
	}

	var hb *wire.Heartbeat // only an idle partition heartbeats
	if len(batches) == 0 {
		hb = &wire.Heartbeat{SrcDC: uint8(r.cfg.DC), Partition: uint16(r.cfg.Partition), TS: ts}
	}
	for dc := 0; dc < r.cfg.NumDCs; dc++ {
		if dc == r.cfg.DC {
			continue
		}
		if !r.resyncDone[dc].Load() {
			// Replication to this DC is held until the restart resync
			// tail is on its link: a batch or heartbeat overtaking the
			// tail would advance the peer's version vector past
			// transactions still in flight behind it. Once the tail is
			// enqueued, this call ships one dedupe-safe catch-up of
			// everything still unconfirmed — including the batches it was
			// handed — and normal replication resumes with the next.
			if !r.resyncTailSent[dc].Load() {
				continue
			}
			// A batch SendBounded gives up on is left to live resync; the
			// rest still go out.
			r.sendResync(dc, r.tl.UnreplicatedTail(dc), func(to transport.NodeID, m wire.Message) bool {
				r.SendBounded(to, m)
				return true
			})
			r.resyncDone[dc].Store(true)
			continue
		}
		prev := r.replPrev.Load(dc)
		for _, b := range batches {
			// Chain the batch to its per-DC predecessor so a receiver that
			// missed one refuses everything after it, and send with bounded
			// retry: a transiently refused batch (an overloaded TCP peer
			// queue) is retried briefly rather than dropped — a lost batch
			// is otherwise only recovered by resync. The batch is shared
			// across destination DCs, so the per-DC chain stamp goes on a
			// shallow copy (the Txs slice is immutable once built).
			bb := *b
			bb.Prev = prev
			r.SendBounded(transport.ServerID(dc, r.cfg.Partition), &bb)
			prev = b.Txs[len(b.Txs)-1].CT
		}
		r.replPrev.Advance(dc, prev)
		if hb != nil {
			r.Send(transport.ServerID(dc, r.cfg.Partition), hb)
		}
	}
	return len(batches) > 0
}

// liveResyncTick is the running counterpart of restart resync: when a
// peer DC's replication cursor has not advanced for several ticks while a
// committed tail is outstanding — its batches or their acknowledgements
// lost to a broken link, a shed queue, or a peer crash — the tail is
// re-sent as dedupe-safe resync batches. The receiver's watermark and
// per-transaction engine check apply each transaction exactly once and
// re-acknowledge, so a stall caused by lost acks alone resolves without
// moving any data.
func (r *Runtime) liveResyncTick() {
	for dc := 0; dc < r.cfg.NumDCs; dc++ {
		// Skip peers whose restart resync is still in flight: ship owns
		// that replay and gates ordinary replication behind it.
		if dc == r.cfg.DC || !r.resyncDone[dc].Load() {
			continue
		}
		tail := r.tl.UnreplicatedTail(dc)
		if len(tail) == 0 {
			r.tailHead[dc], r.tailStall[dc] = 0, 0
			continue
		}
		if head := tail[0].CT; head != r.tailHead[dc] {
			r.tailHead[dc], r.tailStall[dc] = head, 0
			continue
		}
		if r.tailStall[dc]++; r.tailStall[dc] < liveResyncStallTicks {
			continue
		}
		r.tailStall[dc] = 0
		r.sendResync(dc, tail, r.SendBounded)
	}
}

// resendTailTo re-sends one peer DC the committed tail above its
// replication cursor, snapshotted at construction time, as resync batches
// the receiver deduplicates. Each peer gets its own goroutine — until the
// tail is on the link, ship withholds all ordinary replication to that DC,
// and one unreachable peer must not extend that hold to the others.
func (r *Runtime) resendTailTo(dc int, tail []*txlog.CommittedTx) {
	defer r.wg.Done()
	if r.sendResync(dc, tail, r.sendRetry) {
		r.resyncTailSent[dc].Store(true)
	}
}

// sendResync ships tail to dc as resync batches the receiver deduplicates,
// stopping at the first one send gives up on; it reports whether all left.
func (r *Runtime) sendResync(dc int, tail []*txlog.CommittedTx, send func(transport.NodeID, wire.Message) bool) bool {
	for i := 0; i < len(tail); i += resendBatchSize {
		batch := &wire.Replicate{SrcDC: uint8(r.cfg.DC), Partition: uint16(r.cfg.Partition), Resync: true}
		for _, t := range tail[i:min(i+resendBatchSize, len(tail))] {
			batch.Txs = append(batch.Txs, r.proto.ReplTxRecord(t))
		}
		if !send(transport.ServerID(dc, r.cfg.Partition), batch) {
			return false
		}
		r.replPrev.Advance(dc, batch.Txs[len(batch.Txs)-1].CT)
	}
	return true
}

// handleReplicate applies remotely committed transactions (Algorithm 4
// lines 22–26). FIFO links guarantee commit-timestamp order per sender.
// Resync batches — a sender replaying its unconfirmed tail — are
// deduplicated per transaction against the engine; ordinary batches are
// deduplicated against the per-sender watermark, so a duplicated frame or
// a TCP resend across a reconnect is applied exactly once. The batch is
// acknowledged — by the next release barrier, not here — so the sender's
// replication cursor can advance; fully-seen duplicates are acknowledged
// again, since the duplicate usually means the first acknowledgement was
// lost. A gap in the sender's Prev chain is refused (see below).
func (r *Runtime) handleReplicate(m *wire.Replicate) {
	if len(m.Txs) == 0 || !r.isPeerReplica(m.SrcDC, m.Partition) {
		return
	}
	last := m.Txs[len(m.Txs)-1].CT
	wm := r.replWM.Load(int(m.SrcDC))
	if last <= wm {
		// Every transaction in the batch was already applied here.
		r.oweAck(m, last)
		return
	}
	if !m.Resync && m.Prev > wm {
		// Gap: the sender shipped an earlier batch (ending at Prev) that
		// never arrived. Applying this one would advance the watermark and
		// version vector past transactions we do not hold — and its
		// acknowledgement would move the sender's cursor over the hole,
		// dropping the lost batch from the retained tail for good. Refuse
		// it unacknowledged instead: the sender's cursor stalls at the
		// hole and live resync replays the tail in order.
		return
	}
	var skip SkipFunc
	if m.Resync || m.Txs[0].CT <= wm {
		// Resync replay, or a partial overlap with already-applied traffic:
		// dedupe per transaction against the engine.
		skip = r.txApplied
	}
	var puts []store.KV
	for i := range m.Txs {
		puts = r.proto.AppendRemotePuts(puts, m.SrcDC, &m.Txs[i], skip)
	}
	r.st.PutBatch(puts)
	r.ctr.ReplTxApplied.Add(uint64(len(puts)))
	r.replWM.Advance(int(m.SrcDC), last)
	r.VV.Advance(int(m.SrcDC), last)
	r.proto.AfterInstall()
	r.oweAck(m, last)
	// A remote update is visible here once the REMOTE stable time covers it
	// and the LOCAL one has passed it (rt = min(rst, lst−1) in Wren): the
	// local version clock must move too, now rather than at the next tick.
	r.proto.ObserveCommitTS(last)
	r.KickApply()
}

// oweAck queues the acknowledgement of a replicated batch for the next
// release barrier. The engine write above reached the OS, not the disk,
// and the ack lets the ORIGIN's transaction log forget the batch, so it
// must wait for an Engine.Sync that covers the write; the Resync echo lets
// the sender's cursor pin tell tail confirmation from ordinary traffic.
func (r *Runtime) oweAck(m *wire.Replicate, upTo hlc.Timestamp) {
	i := 0
	if m.Resync {
		i = 1
	}
	r.relMu.Lock()
	r.owedAcks[m.SrcDC][i] = max(r.owedAcks[m.SrcDC][i], upTo)
	r.relMu.Unlock()
}

// handleHeartbeat advances the version-vector entry of an idle remote
// replica (Algorithm 4 lines 27–28).
func (r *Runtime) handleHeartbeat(m *wire.Heartbeat) {
	if !r.isPeerReplica(m.SrcDC, m.Partition) {
		return
	}
	r.VV.Advance(int(m.SrcDC), m.TS)
	r.proto.AfterInstall()
}

// handleReplicateAck advances the persisted replication cursor for the
// acknowledging DC: everything up to UpTo is confirmed applied there, so a
// restart re-sends only what lies above. While a post-restart resync is
// outstanding the cursor is pinned below the re-sent tail (only the
// tail's own acknowledgement lifts it) — the txlog clamps the advance.
func (r *Runtime) handleReplicateAck(m *wire.ReplicateAck) {
	if !r.isPeerReplica(m.DC, m.Partition) {
		return
	}
	r.tl.AdvanceCursor(int(m.DC), m.UpTo)
	if m.Resync {
		r.tl.UnpinResync(int(m.DC), m.UpTo)
	}
}

// isPeerReplica reports whether (dc, partition), as named by an inter-DC
// message, is this partition's replica in another DC of this deployment.
// Replicate, Heartbeat and ReplicateAck index per-DC state with the wire's
// DC byte, and a heartbeat naming THIS DC would advance the local version
// clock past unapplied commits, so anything else is refused: a peer
// configured with a different topology must not be able to crash or
// corrupt this server.
func (r *Runtime) isPeerReplica(dc uint8, partition uint16) bool {
	return int(dc) < r.cfg.NumDCs && int(dc) != r.cfg.DC && int(partition) == r.cfg.Partition
}

// Send transmits a message, ignoring delivery errors: the network rejects
// sends only during shutdown, when responses are moot.
func (r *Runtime) Send(to transport.NodeID, m wire.Message) {
	_ = r.cfg.Network.Send(r.id, to, m)
}

// SendBounded transmits protocol maintenance traffic — replication
// batches, stabilization gossip, resync tails — absorbing transient
// delivery errors (a TCP peer shedding load, a link mid-redial) with a
// few short-backoff retries instead of silently dropping. Unlike
// sendRetry it gives up quickly: every caller's traffic is re-generated
// by a periodic loop, so the backstop is the next tick, not an unbounded
// retry. Runs only on protocol loop goroutines, which may stall briefly;
// never on a delivery handler. Reports whether the send was accepted.
func (r *Runtime) SendBounded(to transport.NodeID, m wire.Message) bool {
	const attempts = 4
	for i := 0; i < attempts; i++ {
		if i > 0 {
			select {
			case <-r.stop:
				return false
			case <-time.After(time.Duration(i) * 2 * time.Millisecond):
			}
		}
		err := r.cfg.Network.Send(r.id, to, m)
		if err == nil {
			return true
		}
		if errors.Is(err, transport.ErrClosed) {
			return false
		}
	}
	return false
}

// sendRetry delivers a recovery message, retrying while the destination is
// unreachable: servers of a restarting deployment come up in arbitrary
// order, and a re-driven outcome or resync batch dropped on the floor
// would silently undo the durability the log just recovered. Gives up only
// when this server stops; reports whether the send succeeded.
func (r *Runtime) sendRetry(to transport.NodeID, m wire.Message) bool {
	for {
		if err := r.cfg.Network.Send(r.id, to, m); err == nil {
			return true
		}
		select {
		case <-r.stop:
			return false
		case <-time.After(20 * time.Millisecond):
		}
	}
}
