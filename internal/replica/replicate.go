package replica

import (
	"errors"
	"sync/atomic"
	"time"

	"wren/internal/hlc"
	"wren/internal/store"
	"wren/internal/transport"
	"wren/internal/wire"
)

// stream is the replication stream to one peer DC (see the package
// comment); its third part, the durable cursor, is the log's. ship writes
// sent on the apply goroutine; the lifecycle tick reads it and sets rewind,
// and owns seen and stalled.
type stream struct {
	sent   hlc.AtomicTimestamp // 0 until a rewind's first batch leaves
	rewind atomic.Bool
	// down is set when SendBounded gave up on the stream: ship skips it
	// until the next lifecycle tick turns it into a rewind, so an
	// unreachable DC costs one bounded send per tick, not one per pass.
	down atomic.Bool
	// seen is the cursor the last lifecycle tick saw; stalled counts the
	// ticks since it last moved while sent was above it.
	seen    hlc.Timestamp
	stalled int
}

// ship advances every peer DC's stream by the batches passes queued since
// the last call and, when asked to and there was none, heartbeats each DC
// whose stream is caught up; it reports whether batches left. Only the
// apply goroutine calls it, after a pass (and Stop, after that goroutine
// exited): SendBounded may back off, which a delivery handler must not.
func (r *Runtime) ship(heartbeat bool) bool {
	if r.cfg.NumDCs == 1 {
		return false
	}
	// The clock before the queue: every transaction at or below ts is in the
	// log, and already shipped or in the queue taken next (see install).
	ts := r.VV.Load(r.cfg.DC)
	r.outMu.Lock()
	batches := r.outbox
	r.outbox = nil
	r.outMu.Unlock()

	var hb *wire.Heartbeat // only an idle partition heartbeats
	if heartbeat && len(batches) == 0 {
		hb = &wire.Heartbeat{SrcDC: uint8(r.cfg.DC), Partition: uint16(r.cfg.Partition), TS: ts}
	}
	for dc := range r.streams {
		if dc != r.cfg.DC && r.shipTo(dc, ts, batches) && hb != nil {
			r.Send(transport.ServerID(dc, r.cfg.Partition), hb)
		}
	}
	return len(batches) > 0
}

// shipTo sends dc's stream, when a rewind is pending, the log's records
// above the durable cursor and at or below ts, and then every batch above
// sent. It reports whether the stream is caught up: a send SendBounded
// gives up on marks the stream down, which stops it until the next
// lifecycle tick leaves a rewind pending, so the stream resumes from the
// log, not from a queue already drained.
func (r *Runtime) shipTo(dc int, ts hlc.Timestamp, batches []*wire.Replicate) bool {
	s := &r.streams[dc]
	if s.down.Load() {
		return false
	}
	to := transport.ServerID(dc, r.cfg.Partition)
	send := func(b *wire.Replicate) bool {
		b.Prev = s.sent.Load()
		if !r.SendBounded(to, b) {
			s.down.Store(true)
			return false
		}
		s.sent.Store(b.Txs[len(b.Txs)-1].CT)
		return true
	}
	if s.rewind.Load() {
		s.rewind.Store(false)
		s.sent.Store(0)
		var recs []wire.ReplTx
		for _, t := range r.tl.UnreplicatedTail(dc) {
			if t.CT > ts {
				break
			}
			recs = append(recs, r.proto.ReplTxRecord(t))
		}
		for len(recs) > 0 {
			n := rewindBatchLen(recs)
			b := &wire.Replicate{SrcDC: uint8(r.cfg.DC), Partition: uint16(r.cfg.Partition), Resync: true, Txs: recs[:n:n]}
			if !send(b) {
				return false
			}
			recs = recs[n:]
		}
	}
	for _, b := range batches {
		if b.Txs[0].CT <= s.sent.Load() {
			continue // re-sent by the rewind
		}
		// The batch is shared across DCs: the chain goes on a shallow copy
		// (the Txs slice is immutable once built).
		bb := *b
		if !send(&bb) {
			return false
		}
	}
	return true
}

// rewindBatchLen is how many of recs, a rewind's records in commit-
// timestamp order, its next batch carries: whole commit-timestamp runs
// (see the package comment) up to resendBatchSize records, unless the
// last run makes it longer, and up to resendBatchBytes, so a Replicate
// stays within wire.MaxFrameLen: a run that would pass the budget starts
// the next batch. One transaction always fits a frame alone
// (wire.MaxWriteSetLen); only a run of large ones can pass the budget.
func rewindBatchLen(recs []wire.ReplTx) int {
	size := 0
	for n := 0; n < len(recs); {
		end, run := n, 0
		for ; end < len(recs) && recs[end].CT == recs[n].CT; end++ {
			run += replTxLen(&recs[end])
		}
		if n > 0 && (n >= resendBatchSize || size+run > resendBatchBytes) {
			return n
		}
		size += run
		n = end
	}
	return len(recs)
}

// replTxLen bounds the bytes t adds to a Replicate: its write set as
// wire.WriteLen counts it, and its other fields at their widest.
func replTxLen(t *wire.ReplTx) int {
	n := 48 + 8*len(t.DV)
	for i := range t.Writes {
		n += wire.WriteLen(&t.Writes[i])
	}
	return n
}

// handleReplicate applies remotely committed transactions (Algorithm 4
// lines 22–26). FIFO links guarantee commit-timestamp order per sender.
// Resync batches — a rewind re-sending the sender's unconfirmed tail — are
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
	if m.Prev > wm {
		// Gap: the sender shipped an earlier batch (ending at Prev) that
		// never arrived. Applying this one would advance the watermark and
		// version vector past transactions we do not hold — and its
		// acknowledgement would move the sender's cursor over the hole,
		// dropping the lost batch from the retained tail for good. Refuse
		// it unacknowledged instead: the sender's cursor stalls at the
		// hole and the stream rewinds to it.
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
	r.replTxApplied.Add(uint64(len(puts)))
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
// must wait for an Engine.Sync that covers the write.
func (r *Runtime) oweAck(m *wire.Replicate, upTo hlc.Timestamp) {
	r.relMu.Lock()
	r.owedAcks[m.SrcDC] = max(r.owedAcks[m.SrcDC], upTo)
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
// acknowledging DC: everything up to UpTo is durably applied there (see the
// package comment), so a rewind re-sends only what lies above.
func (r *Runtime) handleReplicateAck(m *wire.ReplicateAck) {
	if r.isPeerReplica(m.DC, m.Partition) {
		r.tl.AdvanceCursor(int(m.DC), m.UpTo)
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
// batches and stabilization gossip — absorbing transient
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
// order, and a re-driven outcome dropped on the floor would silently undo
// the durability the log just recovered. Gives up only
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
