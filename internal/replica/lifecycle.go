package replica

import (
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
// itself), publishes the local clock over them, and stages outcome-less
// prepares for the re-driven CommitTx a restarted coordinator sends. Runs
// before the server is registered on the network.
func (r *Runtime) recoverFromTxLog() {
	committed := r.tl.Committed()
	for _, t := range committed {
		r.st.PutBatch(r.proto.AppendLocalPuts(nil, t, r.txApplied))
	}
	if n := len(committed); n > 0 {
		// Installed, so covered by the version clock — which New's rewinds
		// ship up to — and pinned below every later proposal.
		r.Clock.Update(committed[n-1].CT)
		r.VV.Advance(r.cfg.DC, committed[n-1].CT)
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
	for _, c := range r.tl.RedrivePending(0) {
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
// CommitTx or its ack without this coordinator ever restarting); and the
// stall rewind.
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
	r.rewindStalled()
}

// rewindStalled is the go-back-N timer: a stream SendBounded gave up on
// since the last tick, and one whose durable cursor has not moved for
// rewindStallTicks ticks while transactions above it were shipped — a
// batch or its acknowledgement lost to a broken link or a shed queue, a
// gap refused, a peer restarted — rewinds to the cursor at the apply
// goroutine's next ship.
func (r *Runtime) rewindStalled() {
	for dc := range r.streams {
		if dc == r.cfg.DC {
			continue
		}
		s := &r.streams[dc]
		if s.down.Swap(false) {
			s.rewind.Store(true)
		}
		cur := r.tl.Cursor(dc)
		if cur != s.seen || s.sent.Load() <= cur {
			s.seen, s.stalled = cur, 0
			continue
		}
		if s.stalled++; s.stalled >= rewindStallTicks {
			s.stalled = 0
			s.rewind.Store(true)
		}
	}
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

// gcTick expires abandoned transaction contexts, merges the oldest
// snapshot the survivors need with the gossiped per-partition floors,
// prunes version chains below the DC-wide threshold, and sweeps abandoned
// read fan-ins.
func (r *Runtime) gcTick() {
	now := time.Now()
	oldest := r.oldestSnapshot(now)
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
			r.releaseClient(fi.From())
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

// oldestSnapshot expires the transaction contexts older than
// TxContextTTL (a backstop for abandoned sessions) and returns the oldest
// version time a snapshot still needs (paper §IV-B): the minimum of the
// stable floor — that of the snapshot the next StartTx would assign — and
// every surviving context's floor. The stable floor is loaded under the
// snapMu barrier: every in-flight snapshot assignment drains first, so a
// context the Range below cannot see yet was assigned a snapshot at or
// above this floor and needs no protection from it.
func (r *Runtime) oldestSnapshot(now time.Time) hlc.Timestamp {
	r.snapMu.Lock()
	oldest := r.proto.StableFloor()
	r.snapMu.Unlock()
	var expired []uint64
	r.txCtx.Range(func(id uint64, ctx txContext) bool {
		if now.Sub(ctx.created) > r.cfg.TxContextTTL {
			expired = append(expired, id)
		} else {
			oldest = hlc.Min(oldest, r.proto.SnapshotFloor(ctx.snap))
		}
		return true
	})
	for _, id := range expired {
		if _, ok := r.txCtx.LoadAndDelete(id); ok {
			r.ctxExpired.Inc()
		}
	}
	return oldest
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

// EngineHealthy reports the first write-path failure the storage engine
// has recorded, or nil while it is fully healthy. A durable backend keeps
// acknowledging from memory after a log failure, so this is the signal
// benchmarks and operators poll to catch silently degraded durability.
func (r *Runtime) EngineHealthy() error { return r.st.Healthy() }

// Healthy reports the first durability failure of the server's write path
// — storage engine or transaction log — or nil while both are intact. The
// runtime ACTS on this signal: a degraded server sheds into read-only
// admission (see ReadOnly).
func (r *Runtime) Healthy() error {
	if err := r.st.Healthy(); err != nil {
		return err
	}
	return r.tl.Healthy()
}

// ReadOnly reports whether the server has shed into read-only admission:
// new prepares and commits are refused with a typed error while reads keep
// their path. It flips as soon as the engine or the transaction log
// records a write-path failure — an acknowledgement whose durability
// promise cannot be kept must not be issued — and flips back if a
// probation repair succeeds (see Config.RepairInterval).
func (r *Runtime) ReadOnly() bool { return r.Healthy() != nil }

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

// Stop terminates the background loops, waits for them to exit, flushes
// any transactions still on the commit list into the store, and closes
// the storage engine and the transaction log. On a durable backend the
// flush is an optimization, not the durability mechanism: an acknowledged
// commit whose CommitTx was in flight when draining began is already
// logged and is recovered on the next start.
func (r *Runtime) Stop() { r.shutdown(false) }

// Kill stops the server WITHOUT the final apply/flush, simulating a hard
// kill for recovery tests: acknowledged-but-unapplied transactions stay
// out of the engine and must come back through transaction-log recovery.
// (In-process, file writes already handed to the OS survive regardless —
// what Kill withholds is every shutdown courtesy the process performs.)
func (r *Runtime) Kill() { r.shutdown(true) }

func (r *Runtime) shutdown(kill bool) {
	var flush bool
	r.stopOnce.Do(func() {
		r.drainMu.Lock()
		r.draining = true
		r.drainMu.Unlock()
		r.proto.OnStop(kill)
		close(r.stop)
		flush = true
	})
	r.wg.Wait()
	r.reqWG.Wait()
	if !flush {
		return
	}
	if !kill {
		// Prepared-but-uncommitted transactions can never commit now, but
		// their proposed timestamps would hold the apply upper bound below
		// later acknowledged commits; drop them so the final apply flushes
		// every transaction on the commit list. (Their prepares stay
		// logged, so on a durable backend a commit decision that surfaces
		// after a restart can still be honored.)
		r.mu.Lock()
		r.prepared = make(map[uint64]*txlog.PreparedTx)
		r.mu.Unlock()
		r.ApplyTick()
		r.ship(false)
		r.flushCommitted()
		r.release()
	}
	if err := r.st.Close(); err != nil {
		// The engine surfaces its first append/sync failure here; it
		// must not vanish silently — acknowledged commits may not have
		// reached disk.
		r.reg.Event("store.close_failed", "err", err)
	}
	if err := r.tl.Close(); err != nil {
		r.reg.Event("txlog.close_failed", "err", err)
	}
}
