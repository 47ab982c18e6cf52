package replica

import (
	"sync/atomic"
	"time"

	"wren/internal/fanin"
	"wren/internal/hlc"
	"wren/internal/transport"
	"wren/internal/txlog"
	"wren/internal/wire"
)

// recoveredPrepare is a prepare replayed from the transaction log after a
// restart: its 2PC outcome is unknown until a coordinator re-drives it or
// a TxStatusResp settles it. It is kept out of the pending list so it
// cannot hold the apply upper bound — and therefore the stable snapshot —
// back while it waits; nextProbe paces the status queries.
type recoveredPrepare struct {
	tx        *txlog.PreparedTx
	nextProbe time.Time
}

// recoverFromTxLog replays the log's committed transactions into the
// storage engine (skipping the writes the engine already recovered
// itself) and stages outcome-less prepares for the re-driven CommitTx a
// restarted coordinator sends. Runs before the server is registered on
// the network.
func (r *Runtime) recoverFromTxLog() {
	committed := r.tl.Committed()
	for _, t := range committed {
		r.st.PutBatch(r.proto.AppendLocalPuts(nil, t, r.txApplied))
	}
	// Everything committed in the log is now in the engine; the barrier
	// makes it stable there before the log may drop it.
	r.noteApplied(committed)
	r.release()
	probe := time.Now().Add(recoveryGrace)
	for _, p := range r.tl.Prepared() {
		r.recovered[p.TxID] = &recoveredPrepare{tx: p, nextProbe: probe}
	}
}

// redriveRecovered is the restart half of the coordinator's lifecycle:
// re-drive the unresolved commit decisions this coordinator acknowledged
// (their cohorts may have crashed between PrepareResp and CommitTx),
// retrying while destinations are still coming up. Anything it cannot
// finish is picked up by the periodic lifecycle loop.
func (r *Runtime) redriveRecovered() {
	defer r.wg.Done()
	for _, c := range r.tl.CoordPending() {
		for _, p := range c.Cohorts {
			if !r.sendRetry(transport.ServerID(r.cfg.DC, int(p)), &wire.CommitTx{TxID: c.TxID, CT: c.CT}) {
				return
			}
		}
	}
}

// every runs tick each period on a tracked goroutine until Stop: the
// stabilization (ΔG), GC and lifecycle loops. The apply loop has its own,
// because a kick wakes it between ticks.
func (r *Runtime) every(period time.Duration, tick func()) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		ticker := time.NewTicker(period)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				tick()
			case <-r.stop:
				return
			}
		}
	}()
}

// lifecycleTick is the periodic transaction-lifecycle maintenance, in this
// order: the release barrier; a sync that flushes an idle log's lazy
// waiters; the next id block; the repair probe; status probes to the
// coordinators of recovered prepares whose outcome has not arrived
// (cooperative 2PC termination: only an explicit "not committed" answer
// may abort them); re-drives of unresolved decisions whose cohorts have
// not all confirmed a durable outcome (a cohort crash can swallow a
// CommitTx or its ack without this coordinator ever restarting); and live
// resync.
func (r *Runtime) lifecycleTick() {
	now := time.Now()
	r.release()
	// CommitAcks wait for a sync somebody else needs; when nobody does,
	// this one releases them (a no-op on a synced log).
	r.tl.Sync()
	if r.txSeq.Load()+seqBlockSize/2 > r.seqLimit.Load() {
		r.reserveSeqs(r.seqLimit.Load())
	}
	r.maybeRepair(now)
	var probes []uint64
	r.mu.Lock()
	for id, rp := range r.recovered {
		if now.After(rp.nextProbe) {
			probes = append(probes, id)
			rp.nextProbe = now.Add(recoveryGrace)
		}
	}
	r.mu.Unlock()
	for _, id := range probes {
		dc, p := coordinatorOf(id)
		if dc < r.cfg.NumDCs && p < r.cfg.NumPartitions {
			r.Send(transport.ServerID(dc, p), &wire.TxStatusReq{TxID: id})
		}
	}
	for _, c := range r.tl.RedrivePending(redriveAfter) {
		for _, p := range c.Cohorts {
			r.Send(transport.ServerID(r.cfg.DC, int(p)), &wire.CommitTx{TxID: c.TxID, CT: c.CT})
		}
	}
	r.liveResyncTick()
}

// maybeRepair is the degraded-mode probation exit: when the transaction
// log has recorded a write-path failure but the storage engine is
// healthy, attempt a full repair (compaction rewrite + probe append —
// see txlog.Repair) at most once per RepairInterval. On success the
// sticky error clears and the server readmits writes; a still-broken log
// stays read-only and is retried next interval. An unhealthy ENGINE is
// never repaired this way — rewriting the txlog proves nothing about the
// engine's own logs — and RepairInterval < 0 disables the exit entirely
// (a degraded server then stays read-only until restart).
func (r *Runtime) maybeRepair(now time.Time) {
	if r.cfg.RepairInterval <= 0 || r.tl.Healthy() == nil || r.st.Healthy() != nil || now.Before(r.nextRepair) {
		return
	}
	r.nextRepair = now.Add(r.cfg.RepairInterval)
	r.tl.Repair()
}

// gcTick merges the protocol's oldest-active snapshot with the gossiped
// per-partition floors, prunes version chains below the DC-wide
// threshold, and sweeps abandoned read fan-ins.
func (r *Runtime) gcTick() {
	now := time.Now()
	oldest := r.proto.OldestActiveSnapshot(now)
	// Sweep in-flight read fan-ins whose slice responses will never come
	// (a peer died mid-read): the client has long timed out; dropping the
	// entry lets the fan-in state be reclaimed.
	var staleReads []uint64
	r.pendingSlice.Range(func(reqID uint64, fi *fanin.TxRead) bool {
		if now.Sub(fi.Created()) > r.cfg.TxContextTTL {
			staleReads = append(staleReads, reqID)
		}
		return true
	})
	// A fan-in is registered once per remote slice call, so several stale
	// request ids can map to the same read; its admission slot must be
	// released exactly once. The claims are atomic (LoadAndDelete), so a
	// racing final SliceResp either claims all of a read's entries itself
	// — then it releases and this sweep finds none — or loses at least one
	// to the sweep and can never reach "last".
	released := make(map[*fanin.TxRead]struct{}, len(staleReads))
	for _, reqID := range staleReads {
		fi, ok := r.pendingSlice.LoadAndDelete(reqID)
		if !ok {
			continue
		}
		if _, done := released[fi]; !done {
			released[fi] = struct{}{}
			r.ReleaseClient(fi.From())
		}
	}
	r.mu.Lock()
	r.peerOldest[r.cfg.Partition] = max(r.peerOldest[r.cfg.Partition], oldest)
	threshold := hlc.Min(r.peerOldest...)
	r.mu.Unlock()

	msg := &wire.GCBroadcast{Partition: uint16(r.cfg.Partition), Oldest: oldest}
	for p := 0; p < r.cfg.NumPartitions; p++ {
		if p == r.cfg.Partition {
			continue
		}
		r.Send(transport.ServerID(r.cfg.DC, p), msg)
	}

	if threshold > 0 {
		res := r.st.GCStats(threshold)
		r.gcRemoved.Add(uint64(res.Removed))
		r.gcKeysDropped.Add(uint64(res.DroppedKeys))
	}
}

func (r *Runtime) handleGCBroadcast(m *wire.GCBroadcast) {
	p := int(m.Partition)
	if p < 0 || p >= r.cfg.NumPartitions {
		return
	}
	r.mu.Lock()
	r.peerOldest[p] = max(r.peerOldest[p], m.Oldest)
	r.mu.Unlock()
}

// AdmitClient reserves an in-flight slot for one admission-gated client
// request (a transactional read or a write commit) from connection
// `from`. It returns false — the caller must then answer with Shed — when
// the connection already has MaxInflightPerConn requests outstanding. The
// gate is per connection: a pooled endpoint carrying a whole session
// fleet gets one budget, so it cannot queue unbounded fan-in and 2PC
// state while other connections starve.
func (r *Runtime) AdmitClient(from transport.NodeID) bool {
	ctr := r.admissionCounter(from)
	if ctr.Add(1) > int64(r.cfg.MaxInflightPerConn) {
		ctr.Add(-1)
		return false
	}
	return true
}

// ReleaseClient returns an admitted request's slot. Called exactly once
// per successful AdmitClient: when the response is sent, or when a stale
// fan-in is swept.
func (r *Runtime) ReleaseClient(from transport.NodeID) {
	r.admissionCounter(from).Add(-1)
}

// Shed answers a request refused by AdmitClient with the typed admission
// pushback. A BusyResp proves the request did not execute, so the client
// may resend it — even a CommitReq — after a backoff.
func (r *Runtime) Shed(from transport.NodeID, reqID uint64) {
	r.shed.Inc()
	r.Send(from, &wire.BusyResp{ReqID: reqID})
}

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

// TrackRead registers an in-flight slice-read fan-in under reqID; the
// matching SliceResp resolves it, the GC tick sweeps it if abandoned.
func (r *Runtime) TrackRead(reqID uint64, fi *fanin.TxRead) {
	r.pendingSlice.Store(reqID, fi)
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
			r.ReleaseClient(to)
			r.Send(to, resp)
		}
	}
	wire.PutSliceResp(m)
}

// handleHealthReq answers the operator-facing health probe (wren-cli
// health): whether this server is in read-only admission and why.
func (r *Runtime) handleHealthReq(from transport.NodeID, m *wire.HealthReq) {
	resp := &wire.HealthResp{ReqID: m.ReqID}
	if err := r.Healthy(); err != nil {
		resp.ReadOnly = true
		resp.Err = err.Error()
	}
	r.Send(from, resp)
}
