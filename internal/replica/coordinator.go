package replica

import (
	"sync/atomic"
	"time"

	"wren/internal/fanin"
	"wren/internal/hlc"
	"wren/internal/sharding"
	"wren/internal/transport"
	"wren/internal/wire"
)

// Snapshot is a transaction's snapshot in the shape the wire carries it
// (StartTxResp, SliceReq, PrepareReq): Wren's pair of stable times (LT,
// RT) or Cure's vector SV, one entry per DC. A protocol fills its half
// and leaves the other zero.
type Snapshot struct {
	LT, RT hlc.Timestamp
	SV     []hlc.Timestamp
}

// txContext is the coordinator-side state of an open transaction (TX[id_T]
// in Algorithm 2). It is a value in a striped map keyed by TxID, so
// looking one up on the read path touches only the stripe its TxID hashes
// to — never writer state.
type txContext struct {
	snap    Snapshot
	created time.Time
}

// handleStartTx implements Algorithm 2 lines 1–6: the protocol assigns the
// snapshot, which is stored as the transaction's context and returned.
// snapMu is held SHARED around the assignment so GC's exclusive floor load
// can never miss a context it must protect. The session's previous
// transaction, when it ended without a COMMIT round, is released first
// (m.Done), so a session holds one context at a time.
func (r *Runtime) handleStartTx(from transport.NodeID, m *wire.StartTxReq) {
	if m.Done != 0 {
		r.txCtx.Delete(m.Done)
	}
	id := r.NewTxID()
	r.snapMu.RLock()
	snap := r.proto.BeginSnapshot(m)
	r.txCtx.Store(id, txContext{snap: snap, created: time.Now()})
	r.snapMu.RUnlock()

	r.txStarted.Inc()
	r.Send(from, &wire.StartTxResp{ReqID: m.ReqID, TxID: id, LST: snap.LT, RST: snap.RT, SV: snap.SV})
}

// handleTxRead implements Algorithm 2 lines 7–16: fan the key set out to
// the responsible partitions and merge the slices via a completion-counter
// fan-in — the last arriving SliceResp assembles and sends the TxReadResp,
// so no goroutine parks per in-flight read and no server-wide lock is
// taken.
func (r *Runtime) handleTxRead(from transport.NodeID, m *wire.TxReadReq) {
	ctx, ok := r.txCtx.Load(m.TxID)
	if !ok {
		// Unknown (expired or released) transaction: say so, so the client
		// fails instead of taking the empty reply for "no key exists".
		r.Send(from, &wire.TxReadResp{ReqID: m.ReqID, Expired: true})
		return
	}
	// Per-connection admission: a pooled link multiplexing thousands of
	// sessions must not be allowed to flood the fan-in tables; past the
	// bound the request is refused before any slice work happens, and the
	// client's retry policy backs off. Released when the last slice arrives
	// (here or in handleSliceResp) or when the GC sweep expires a stale
	// fan-in.
	if !r.admitClient(from) {
		r.shedClient(from, m.ReqID)
		return
	}

	fo := r.fanPool.Get().(*fanin.Fanout)
	fo.Reset(r.cfg.NumPartitions)
	for _, k := range m.Keys {
		fo.Add(sharding.PartitionOf(k, r.cfg.NumPartitions), k)
	}
	calls := len(fo.Touched)
	fi := fanin.Start(from, m.ReqID, calls)

	// Keys this partition owns are served in place when the protocol can,
	// with one batched store read appended straight into the response
	// buffer: this runs before any remote registration, so nothing can race
	// the append and no staging copy is paid. The slice then needs no call
	// and its contribution to the fan-in is released here; the
	// coordinator's own contribution still holds the read open.
	served := false
	if own := fo.Groups[r.cfg.Partition]; len(own) > 0 {
		var items []wire.Item
		if items, served = r.proto.ReadOwnSlice(own, ctx.snap, fi.Items()); served {
			fi.SetItems(items)
			fi.Finish()
			r.slicesServed.Inc()
			calls--
		}
	}
	var stab wire.Stab
	if calls > 0 {
		stab = r.proto.StampStable()
	}
	for _, p := range fo.Touched {
		if p == r.cfg.Partition && served {
			continue
		}
		reqID := r.reqSeq.Add(1)
		req := wire.GetSliceReq()
		req.ReqID, req.LT, req.RT, req.SV, req.Stab = reqID, ctx.snap.LT, ctx.snap.RT, ctx.snap.SV, stab
		req.Keys = append(req.Keys[:0], fo.Groups[p]...)
		r.pendingSlice.Store(reqID, fi)
		r.Send(transport.ServerID(r.cfg.DC, p), req)
	}
	r.fanPool.Put(fo)

	// Release the coordinator's own contribution; when every remote slice
	// already answered (or none was needed), this assembles the response.
	if resp, to, last := fi.Finish(); last {
		r.releaseClient(to)
		r.Send(to, resp)
	}
}

// handleSliceResp folds a remote slice into its read fan-in; the last
// arriving slice assembles and sends the TxReadResp, releasing the read's
// admission slot.
func (r *Runtime) handleSliceResp(from transport.NodeID, m *wire.SliceResp) {
	r.ObserveStable(from, m.Stab)
	if fi, ok := r.pendingSlice.LoadAndDelete(m.ReqID); ok {
		if fi.Fold(m.Items, m.BlockedMicros) {
			// The fold stole the items buffer into the response as a
			// chunk: strip it from the pooled message so the pool cannot
			// hand the same backing array to a later read.
			m.Items = nil
		}
		if resp, to, last := fi.Finish(); last {
			r.releaseClient(to)
			r.Send(to, resp)
		}
	}
	wire.PutSliceResp(m)
}

// handleCommitReq resolves the transaction's snapshot — its context's, or
// the protocol's stand-in when the context expired (or a read-only
// release raced it) — and runs the 2PC (Algorithm 2 lines 17–28); each
// cohort's PrepareReq carries the snapshot and the proposal floor ht.
func (r *Runtime) handleCommitReq(from transport.NodeID, m *wire.CommitReq) {
	ctx, ok := r.txCtx.LoadAndDelete(m.TxID)
	snap := ctx.snap
	if !ok {
		snap = r.proto.ExpiredSnapshot()
	}
	r.commit(from, m, snap, r.proto.CommitFloor(snap, m.HWT))
}

// admitClient reserves an in-flight slot for one admission-gated client
// request (a transactional read or a write commit) from connection
// `from`. It returns false — the caller must then answer with shedClient —
// when the connection already has MaxInflightPerConn requests outstanding.
// The gate is per connection: a pooled endpoint carrying a whole session
// fleet gets one budget, so it cannot queue unbounded fan-in and 2PC
// state while other connections starve.
func (r *Runtime) admitClient(from transport.NodeID) bool {
	ctr := r.admissionCounter(from)
	if ctr.Add(1) > int64(r.cfg.MaxInflightPerConn) {
		ctr.Add(-1)
		return false
	}
	return true
}

// releaseClient returns an admitted request's slot. Called exactly once
// per successful admitClient: when the response is sent, or when a stale
// fan-in is swept.
func (r *Runtime) releaseClient(from transport.NodeID) {
	r.admissionCounter(from).Add(-1)
}

// shedClient answers a request refused by admitClient with the typed
// admission pushback. A BusyResp proves the request did not execute, so
// the client may resend it — even a CommitReq — after a backoff.
func (r *Runtime) shedClient(from transport.NodeID, reqID uint64) {
	r.shed.Inc()
	r.Send(from, &wire.BusyResp{ReqID: reqID})
}

// ShedRequests counts requests refused at per-connection admission (each
// answered with a BusyResp before any processing) since the server
// started.
func (r *Runtime) ShedRequests() uint64 { return r.shed.Load() }

func (r *Runtime) admissionCounter(from transport.NodeID) *atomic.Int64 {
	r.admMu.RLock()
	ctr := r.admission[from]
	r.admMu.RUnlock()
	if ctr != nil {
		return ctr
	}
	r.admMu.Lock()
	if ctr = r.admission[from]; ctr == nil {
		ctr = new(atomic.Int64)
		r.admission[from] = ctr
	}
	r.admMu.Unlock()
	return ctr
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
