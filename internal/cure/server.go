package cure

import (
	"errors"
	"sync"
	"time"

	"wren/internal/fanin"
	"wren/internal/hlc"
	"wren/internal/obs"
	"wren/internal/replica"
	"wren/internal/sharding"
	"wren/internal/store"
	"wren/internal/stripemap"
	"wren/internal/transport"
	"wren/internal/txlog"
	"wren/internal/wire"
)

// ServerConfig configures one Cure/H-Cure partition server; UseHLC selects
// H-Cure. BlockingCommit and GossipTree are Wren's switches and are
// refused.
type ServerConfig = replica.Config

// txContext is the coordinator-side state of an open transaction.
type txContext struct {
	sv      []hlc.Timestamp // snapshot vector
	created time.Time
}

// waiter is a parked slice read whose snapshot is not yet installed — the
// blocking behaviour that Wren eliminates. req is retained (and released
// to the message pool only after the read is served or failed) because
// keys and sv alias its buffers.
type waiter struct {
	from    transport.NodeID
	reqID   uint64
	keys    []string
	sv      []hlc.Timestamp
	req     *wire.SliceReq
	arrived time.Time
}

// curePred is Cure's snapshot-vector visibility predicate in reusable
// form: a pooled readScratch binds its visible method once, so a slice
// read updates one field instead of allocating a closure.
type curePred struct {
	sv []hlc.Timestamp
}

func (p *curePred) visible(v *store.Version) bool { return leqAll(v.DV, p.sv) }

// readScratch is the pooled per-read working set (predicate + version
// buffer), mirroring package core.
type readScratch struct {
	pred    curePred
	visible store.VisibleFunc
	vers    []*store.Version
}

// Server is one Cure/H-Cure partition server: the vector-snapshot half —
// snapshot-vector assignment, the parked-reader (blocking) read path, and
// the full-vector stabilization gossip — over the shared replica runtime,
// which owns the durable transaction lifecycle, recovery, and every
// background loop.
//
// Mirroring package core, the read path is lock-free where the protocol
// allows: the version vector and global stable vector are atomically
// published (so the installed-snapshot check on every slice read takes no
// lock), per-request bookkeeping lives in striped maps, and read fan-ins
// are completion counters. What remains under s.mu is the parked-reader
// list and the gossip aggregation — the blocking that defines this
// baseline.
type Server struct {
	cfg ServerConfig
	rt  *replica.Runtime
	// st aliases rt.Engine() for the slice-read path.
	st store.Engine

	// gsv is the global stable vector from gossip (entrywise min over
	// peers): entrywise-monotone, loaded lock-free on the read path.
	gsv hlc.AtomicVector

	txCtx *stripemap.Map[*txContext]

	readPool sync.Pool
	fanPool  sync.Pool

	// mu guards the parked-reader list and the gossip aggregation.
	// Protocol-only state: disjoint from the runtime's writer mutex.
	mu      sync.Mutex
	waiters []*waiter
	peerVV  [][]hlc.Timestamp // last gossiped VV per peer partition

	// The protocol's counters in the server's registry (Obs); read.blocked
	// and read.blocked_us feed the paper's Figure 3b.
	txStarted, slicesServed, blockedReads, blockedMicros, ctxExpired *obs.Counter
}

// NewServer constructs a Cure or H-Cure partition server.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.BlockingCommit || cfg.GossipTree {
		return nil, errors.New("cure: BlockingCommit and GossipTree are Wren options")
	}
	cfg.FillDefaults()
	if err := cfg.Validate("cure"); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		gsv:    hlc.NewAtomicVector(cfg.NumDCs),
		txCtx:  stripemap.New[*txContext](0),
		peerVV: make([][]hlc.Timestamp, cfg.NumPartitions),
	}
	for p := range s.peerVV {
		s.peerVV[p] = make([]hlc.Timestamp, cfg.NumDCs)
	}
	rt, err := replica.New("cure", cfg, (*cureProtocol)(s))
	if err != nil {
		return nil, err
	}
	s.rt = rt
	s.st = rt.Engine()
	reg := rt.Obs()
	s.txStarted, s.slicesServed = reg.Counter("tx.started"), reg.Counter("read.slices_served")
	s.blockedReads, s.blockedMicros = reg.Counter("read.blocked"), reg.Counter("read.blocked_us")
	s.ctxExpired = reg.Counter("ctx.expired")
	reg.Func("ctx.open", func() uint64 { return uint64(s.txCtx.Len()) })
	s.readPool.New = func() any {
		rs := &readScratch{}
		rs.visible = rs.pred.visible
		return rs
	}
	s.fanPool.New = func() any { return &fanin.Fanout{} }
	return s, nil
}

// ID returns the server's node id.
func (s *Server) ID() transport.NodeID { return s.rt.ID() }

// Obs returns the server's metrics registry (see core.Server.Obs).
func (s *Server) Obs() *obs.Registry { return s.rt.Obs() }

// Store exposes the underlying storage engine for tests.
func (s *Server) Store() store.Engine { return s.st }

// EngineHealthy reports the first write-path failure the storage engine
// has recorded, or nil while it is fully healthy.
func (s *Server) EngineHealthy() error { return s.st.Healthy() }

// Healthy reports the first durability failure of the server's write path
// — storage engine or transaction log — or nil while both are intact.
func (s *Server) Healthy() error { return s.rt.Healthy() }

// ReadOnly reports whether the server has shed into read-only admission
// (see core.Server.ReadOnly).
func (s *Server) ReadOnly() bool { return s.rt.Healthy() != nil }

// TxLog exposes the transaction log for tests.
func (s *Server) TxLog() *txlog.Log { return s.rt.TxLog() }

// Start registers the server and launches the runtime's background loops.
func (s *Server) Start() { s.rt.Start() }

// Stop terminates background loops, flushes the commit list into the
// store, and closes the storage engine and transaction log.
func (s *Server) Stop() { s.rt.Stop() }

// Kill stops the server WITHOUT the final apply/flush (and without the
// courtesy replies to parked readers), simulating a hard kill for
// recovery tests; see core.Server.Kill.
func (s *Server) Kill() { s.rt.Kill() }

// StableVector returns a copy of the server's global stable vector.
func (s *Server) StableVector() []hlc.Timestamp {
	return s.gsv.Snapshot(nil)
}

// VersionVector returns a copy of the server's version vector.
func (s *Server) VersionVector() []hlc.Timestamp {
	return s.rt.VV.Snapshot(nil)
}

// LocalVersionClock returns vv[m].
func (s *Server) LocalVersionClock() hlc.Timestamp {
	return s.rt.VV.Load(s.cfg.DC)
}

// now returns the coordinator clock reading used for snapshot local
// entries: the HLC for H-Cure, the raw physical clock for Cure.
func (s *Server) now() hlc.Timestamp {
	if s.cfg.UseHLC {
		return s.rt.Clock.Now()
	}
	return s.rt.Clock.PhysicalNow()
}

// depVector derives a version's dependency vector from its prepare-time
// snapshot vector and final commit timestamp.
func (s *Server) depVector(sv []hlc.Timestamp, ct hlc.Timestamp) []hlc.Timestamp {
	var dv []hlc.Timestamp
	if len(sv) == s.cfg.NumDCs {
		dv = copyVec(sv)
	} else {
		dv = make([]hlc.Timestamp, s.cfg.NumDCs)
	}
	dv[s.cfg.DC] = ct
	return dv
}

// cureProtocol is the replica.Protocol implementation: the seam through
// which the shared runtime calls back into Cure's vector-snapshot logic.
type cureProtocol Server

func (p *cureProtocol) server() *Server { return (*Server)(p) }

// AppendLocalPuts renders a locally committed transaction into engine
// versions carrying its dependency vector, derived from the prepare-time
// snapshot vector and the final commit timestamp.
func (p *cureProtocol) AppendLocalPuts(dst []store.KV, t *txlog.CommittedTx, skip replica.SkipFunc) []store.KV {
	s := p.server()
	dv := s.depVector(t.SV, t.CT)
	for _, kv := range t.Writes {
		if skip != nil && skip(kv.Key, t.TxID) {
			continue
		}
		dst = append(dst, store.KV{Key: kv.Key, Version: &store.Version{
			Value: kv.VersionValue(), UT: t.CT, TxID: t.TxID, SrcDC: uint8(s.cfg.DC), DV: dv,
		}})
	}
	return dst
}

// AppendRemotePuts renders one replicated transaction from srcDC; its
// dependency vector arrives on the wire.
func (p *cureProtocol) AppendRemotePuts(dst []store.KV, srcDC uint8, t *wire.ReplTx, skip replica.SkipFunc) []store.KV {
	for _, kv := range t.Writes {
		if skip != nil && skip(kv.Key, t.TxID) {
			continue
		}
		dst = append(dst, store.KV{Key: kv.Key, Version: &store.Version{
			Value: kv.VersionValue(), UT: t.CT, TxID: t.TxID, SrcDC: srcDC, DV: t.DV,
		}})
	}
	return dst
}

// ReplTxRecord ships the full M-entry dependency vector with each
// replicated transaction — Cure's snapshot overhead versus Wren's one
// scalar (Figure 7a).
func (p *cureProtocol) ReplTxRecord(t *txlog.CommittedTx) wire.ReplTx {
	s := p.server()
	return wire.ReplTx{TxID: t.TxID, CT: t.CT, DV: s.depVector(t.SV, t.CT), Writes: t.Writes}
}

// ApplyBound follows the clock the variant runs on. Cure: the version
// clock can only follow the raw physical clock — the root cause of
// skew-induced read blocking. H-Cure: the HLC, which message receipt can
// advance. Either way the HLC is pinned to the bound: prepares propose via
// TickPast, and the pin guarantees every later proposal lands strictly
// above a bound already published as installed — without it, a proposal
// could tie the bound at microsecond granularity and commit inside the
// installed region. Called under the runtime's writer mutex.
func (p *cureProtocol) ApplyBound() hlc.Timestamp {
	s := p.server()
	var ub hlc.Timestamp
	if s.cfg.UseHLC {
		ub = s.rt.Clock.Now()
	} else {
		ub = s.rt.Clock.PhysicalNow()
	}
	s.rt.Clock.Update(ub)
	return ub
}

// ObserveCommitTS absorbs a commit timestamp this partition heard of into
// the clock — only H-Cure's HLC may jump; plain Cure's physical clock must
// not.
func (p *cureProtocol) ObserveCommitTS(ct hlc.Timestamp) {
	s := p.server()
	if s.cfg.UseHLC {
		s.rt.Clock.Update(ct)
	}
}

// AfterInstall releases parked slice reads whose snapshot the advanced
// version vector now covers — the wakeup half of Cure's blocking reads.
func (p *cureProtocol) AfterInstall() {
	s := p.server()
	s.mu.Lock()
	ready := s.releaseWaitersLocked()
	s.mu.Unlock()
	s.serveReady(ready)
}

// StampStable and ObserveStable are no-ops: Cure's stabilization state is
// an M-entry vector per partition, which stays on its ΔG broadcast instead
// of riding the transaction messages.
func (p *cureProtocol) StampStable(*wire.Stab) {}

// ObserveStable: see StampStable.
func (p *cureProtocol) ObserveStable(int, wire.Stab) {}

// GossipTick broadcasts the full M-entry version vector — Cure's
// stabilization messages are M timestamps versus Wren's two (Figure 7a).
func (p *cureProtocol) GossipTick() {
	s := p.server()
	vvCopy := s.rt.VV.Snapshot(nil)
	s.mu.Lock()
	maxInto(s.peerVV[s.cfg.Partition], vvCopy)
	s.recomputeStableLocked()
	s.mu.Unlock()

	msg := &wire.StableBroadcast{Partition: uint16(s.cfg.Partition), VV: vvCopy}
	for q := 0; q < s.cfg.NumPartitions; q++ {
		if q == s.cfg.Partition {
			continue
		}
		s.rt.SendBounded(transport.ServerID(s.cfg.DC, q), msg)
	}
}

// OldestActiveSnapshot expires abandoned transaction contexts and returns
// a conservative scalar GC bound: the minimum entry of any active snapshot
// vector (or of the stable vector when idle). The floor is loaded under
// the runtime's SnapMu barrier: in-flight snapshot assignments drain
// first, so a context the Range below cannot see yet was assigned entries
// at or above these values and needs no protection.
func (p *cureProtocol) OldestActiveSnapshot(now time.Time) hlc.Timestamp {
	s := p.server()
	var expired []uint64
	s.txCtx.Range(func(id uint64, ctx *txContext) bool {
		if now.Sub(ctx.created) > s.cfg.TxContextTTL {
			expired = append(expired, id)
		}
		return true
	})
	for _, id := range expired {
		if _, ok := s.txCtx.LoadAndDelete(id); ok {
			s.ctxExpired.Inc()
		}
	}
	s.rt.SnapMu.Lock()
	oldest := s.gsv.Load(0)
	for i := 1; i < s.cfg.NumDCs; i++ {
		if t := s.gsv.Load(i); t < oldest {
			oldest = t
		}
	}
	if local := s.rt.VV.Load(s.cfg.DC); local < oldest {
		oldest = local
	}
	s.rt.SnapMu.Unlock()
	s.txCtx.Range(func(_ uint64, ctx *txContext) bool {
		for _, t := range ctx.sv {
			if t < oldest {
				oldest = t
			}
		}
		return true
	})
	return oldest
}

// BeforeCommitReply is a no-op for Cure: commits are acknowledged as soon
// as the decision is durable.
func (p *cureProtocol) BeforeCommitReply(hlc.Timestamp) bool { return true }

// OnStop fails parked reads so clients aren't left hanging (a killed
// server answers nobody). Runs inside the runtime's shutdown sequence
// before the stop channel closes.
func (p *cureProtocol) OnStop(kill bool) {
	s := p.server()
	s.mu.Lock()
	waiters := s.waiters
	s.waiters = nil
	s.mu.Unlock()
	if kill {
		return
	}
	for _, w := range waiters {
		s.rt.Send(w.from, &wire.SliceResp{ReqID: w.reqID})
		if w.req != nil {
			wire.PutSliceReq(w.req)
		}
	}
}

// HandleMessage dispatches the snapshot-carrying messages the runtime
// forwards to the protocol.
func (p *cureProtocol) HandleMessage(from transport.NodeID, m wire.Message) {
	s := p.server()
	switch msg := m.(type) {
	case *wire.StartTxReq:
		s.handleStartTx(from, msg)
	case *wire.TxReadReq:
		s.handleTxRead(from, msg)
	case *wire.CommitReq:
		s.handleCommitReq(from, msg)
	case *wire.SliceReq:
		s.handleSliceReq(from, msg)
	case *wire.PrepareReq:
		s.handlePrepareReq(from, msg)
	case *wire.StableBroadcast:
		s.handleStableBroadcast(msg)
	}
}

// handleStartTx assigns the snapshot vector: remote entries from the
// stable vector, the local entry from the coordinator's CURRENT clock —
// the design choice that makes Cure reads block — raised to the client's
// dependency vector. SnapMu is held SHARED around the assignment so GC's
// exclusive floor load can never miss a context it must protect. As in
// package core, m.Done releases the session's previous transaction first.
func (s *Server) handleStartTx(from transport.NodeID, m *wire.StartTxReq) {
	if m.Done != 0 {
		s.txCtx.Delete(m.Done)
	}
	id := s.rt.NewTxID()
	s.rt.SnapMu.RLock()
	sv := s.gsv.Snapshot(nil)
	sv[s.cfg.DC] = s.now()
	if len(m.DV) == len(sv) {
		maxInto(sv, m.DV)
	}
	s.txCtx.Store(id, &txContext{sv: sv, created: time.Now()})
	s.rt.SnapMu.RUnlock()

	s.txStarted.Inc()
	s.rt.Send(from, &wire.StartTxResp{ReqID: m.ReqID, TxID: id, SV: sv})
}

// handleTxRead fans the key set out per partition and merges the slices
// via a completion-counter fan-in (as in package core): the last arriving
// SliceResp assembles the TxReadResp, no goroutine parks per read. Unlike
// Wren's coordinator there is no local fast path — even the coordinator's
// own slice goes through handleSliceReq, which may legitimately park it
// (the blocking this baseline exists to exhibit).
func (s *Server) handleTxRead(from transport.NodeID, m *wire.TxReadReq) {
	ctx, ok := s.txCtx.Load(m.TxID)
	if !ok {
		s.rt.Send(from, &wire.TxReadResp{ReqID: m.ReqID, Expired: true})
		return
	}
	sv := ctx.sv

	// Per-connection admission, mirroring Wren's coordinator: a pooled
	// link multiplexing many sessions is bounded before any slice work —
	// or parking — happens. Released when the last slice arrives (in the
	// runtime's SliceResp handler or below) or by the GC sweep.
	if !s.rt.AdmitClient(from) {
		s.rt.Shed(from, m.ReqID)
		return
	}

	fo := s.fanPool.Get().(*fanin.Fanout)
	fo.Reset(s.cfg.NumPartitions)
	for _, k := range m.Keys {
		fo.Add(sharding.PartitionOf(k, s.cfg.NumPartitions), k)
	}

	fi := fanin.Start(from, m.ReqID, len(fo.Touched))
	for _, p := range fo.Touched {
		reqID := s.rt.NextReqID()
		req := wire.GetSliceReq()
		req.ReqID = reqID
		req.Keys = append(req.Keys[:0], fo.Groups[p]...)
		req.SV = sv // aliases the tx context's vector; PutSliceReq drops it
		s.rt.TrackRead(reqID, fi)
		s.rt.Send(transport.ServerID(s.cfg.DC, p), req)
	}
	s.fanPool.Put(fo)

	if resp, to, last := fi.Finish(); last {
		s.rt.ReleaseClient(to)
		s.rt.Send(to, resp)
	}
}

// installed reports whether this partition has installed snapshot sv:
// every version-vector entry has reached the snapshot's. Lock-free — the
// version vector is entrywise-monotone, so a true result never reverts.
func (s *Server) installed(sv []hlc.Timestamp) bool {
	return s.rt.VV.Covers(sv)
}

// handleSliceReq serves the read if the snapshot is installed; otherwise it
// PARKS the request until the apply loop or replication catches up. This is
// the blocking that Wren's CANToR protocol eliminates. The installed fast
// path takes no lock at all; only parking does.
func (s *Server) handleSliceReq(from transport.NodeID, m *wire.SliceReq) {
	if s.cfg.UseHLC {
		// H-Cure: the HLC absorbs the snapshot timestamp, so an idle
		// partition's clock no longer lags the coordinator's.
		s.rt.Clock.Update(m.SV[s.cfg.DC])
	}
	if s.installed(m.SV) {
		s.serveSlice(from, m.ReqID, m.Keys, m.SV, 0)
		wire.PutSliceReq(m)
		return
	}
	s.mu.Lock()
	// Re-check under the lock: a concurrent vv advance that ran its waiter
	// release before we parked would otherwise be a lost wakeup.
	if s.installed(m.SV) {
		s.mu.Unlock()
		s.serveSlice(from, m.ReqID, m.Keys, m.SV, 0)
		wire.PutSliceReq(m)
		return
	}
	s.waiters = append(s.waiters, &waiter{
		from: from, reqID: m.ReqID, keys: m.Keys, sv: m.SV, req: m, arrived: time.Now(),
	})
	s.mu.Unlock()
	// Try to install a fresher snapshot right away: if nothing is pending
	// and the clock allows, the read is served without waiting for the
	// next apply pass. What remains is genuine blocking: pending
	// transactions below the snapshot, clock skew (Cure only), or missing
	// remote updates.
	s.rt.ApplyTick()
}

// serveSlice returns the freshest version of each key whose dependency
// vector is within the snapshot. The response and its working memory come
// from pools; the receiver releases the response.
func (s *Server) serveSlice(to transport.NodeID, reqID uint64, keys []string, sv []hlc.Timestamp, blocked time.Duration) {
	rs := s.readPool.Get().(*readScratch)
	rs.pred.sv = sv
	rs.vers = s.st.ReadVisibleBatchInto(keys, rs.visible, rs.vers)
	resp := wire.GetSliceResp()
	resp.ReqID = reqID
	for i, v := range rs.vers {
		// A visible tombstone (nil Value) reads as absence, hiding any
		// older live version.
		if v != nil && v.Value != nil {
			resp.Items = append(resp.Items, wire.Item{
				Key: keys[i], Value: v.Value, UT: v.UT, TxID: v.TxID, SrcDC: v.SrcDC, DV: v.DV,
			})
		}
	}
	rs.pred.sv = nil // do not pin the snapshot vector in the pool
	clear(rs.vers)   // nor GC-able version chains
	s.readPool.Put(rs)
	s.slicesServed.Inc()
	if blocked > 0 {
		s.blockedReads.Inc()
		s.blockedMicros.Add(uint64(blocked.Microseconds()))
	}
	resp.BlockedMicros = blocked.Microseconds()
	s.rt.Send(to, resp)
}

// releaseWaitersLocked finds parked reads whose snapshot is now installed.
// It must be called with s.mu held; it returns the now-serveable waiters so
// the caller can serve them after releasing the lock.
func (s *Server) releaseWaitersLocked() []*waiter {
	if len(s.waiters) == 0 {
		return nil
	}
	var ready []*waiter
	rest := s.waiters[:0]
	for _, w := range s.waiters {
		if s.installed(w.sv) {
			ready = append(ready, w)
		} else {
			rest = append(rest, w)
		}
	}
	s.waiters = rest
	return ready
}

func (s *Server) serveReady(ready []*waiter) {
	for _, w := range ready {
		s.serveSlice(w.from, w.reqID, w.keys, w.sv, time.Since(w.arrived))
		if w.req != nil {
			// keys and sv alias the request's buffers; release only after
			// the read is fully served.
			wire.PutSliceReq(w.req)
		}
	}
}

// handleCommitReq resolves the transaction's snapshot vector and hands the
// 2PC to the runtime; each cohort's PrepareReq carries the vector and the
// proposal floor ht.
func (s *Server) handleCommitReq(from transport.NodeID, m *wire.CommitReq) {
	ctx, ok := s.txCtx.LoadAndDelete(m.TxID)
	var sv []hlc.Timestamp
	if ok {
		sv = ctx.sv
	} else {
		sv = s.gsv.Snapshot(nil)
		sv[s.cfg.DC] = s.now()
	}
	ht := hlc.Max(m.HWT, sv[s.cfg.DC])
	s.rt.Commit(from, m, func() *wire.PrepareReq {
		return &wire.PrepareReq{HT: ht, SV: sv}
	})
}

// handlePrepareReq hands the cohort side of the 2PC to the runtime: Cure
// proposes from the (possibly lagging) physical clock via the HLC's
// TickPast; H-Cure's HLC can jump.
func (s *Server) handlePrepareReq(from transport.NodeID, m *wire.PrepareReq) {
	s.rt.Prepare(from, m, m.HT)
}

// handleStableBroadcast ingests a peer's full version vector and recomputes
// the global stable vector as the entrywise minimum.
func (s *Server) handleStableBroadcast(m *wire.StableBroadcast) {
	p := int(m.Partition)
	if p < 0 || p >= s.cfg.NumPartitions || len(m.VV) != s.cfg.NumDCs {
		return
	}
	s.mu.Lock()
	maxInto(s.peerVV[p], m.VV)
	s.recomputeStableLocked()
	s.mu.Unlock()
}

// recomputeStableLocked folds the per-peer vectors into the published
// global stable vector. Caller holds s.mu (which serializes peerVV);
// publication itself is an entrywise atomic max-merge.
func (s *Server) recomputeStableLocked() {
	for i := 0; i < s.cfg.NumDCs; i++ {
		m := s.peerVV[0][i]
		for p := 1; p < s.cfg.NumPartitions; p++ {
			if s.peerVV[p][i] < m {
				m = s.peerVV[p][i]
			}
		}
		s.gsv.Advance(i, m)
	}
}

var _ replica.Protocol = (*cureProtocol)(nil)
