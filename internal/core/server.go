package core

import (
	"errors"
	"fmt"
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

// DefaultGCInterval is the version-GC period a zero GCInterval selects.
const DefaultGCInterval = replica.DefaultGCInterval

// ServerConfig configures one Wren partition server p_n^m. UseHLC, the one
// protocol switch, is Cure's and is refused.
type ServerConfig = replica.Config

// txContext is the coordinator-side state of an open transaction
// (TX[id_T] in Algorithm 2). It is a value type stored in a striped map
// keyed by TxID, so looking one up on the read path touches only the
// stripe its TxID hashes to — never writer state.
type txContext struct {
	lt      hlc.Timestamp
	rt      hlc.Timestamp
	created time.Time
}

// cantorPred is the CANToR visibility predicate (Algorithm 3 lines 7–8) in
// reusable form: a pooled readScratch binds its visible method once, so a
// slice read updates three fields instead of allocating a fresh closure.
type cantorPred struct {
	localDC uint8
	lt, rt  hlc.Timestamp
}

func (p *cantorPred) visible(v *store.Version) bool {
	if v.SrcDC == p.localDC {
		return v.UT <= p.lt && v.RDT <= p.rt
	}
	return v.UT <= p.rt && v.RDT <= p.lt
}

// readScratch is the pooled per-read working set: the bound visibility
// predicate and the version result buffer handed to the engine's
// caller-buffer batch read. With it, a slice read allocates nothing in
// steady state.
type readScratch struct {
	pred    cantorPred
	visible store.VisibleFunc
	vers    []*store.Version
}

// Metrics is the view of the server's registry (Obs) that the benchmark
// compiles against: five of its counters, under the names it reads.
type Metrics struct {
	TxStarted, TxCommitted, SlicesServed, ReplTxApplied, GCRemoved *obs.Counter
}

// Server is one Wren partition server p_n^m: the protocol-specific half —
// the CANToR snapshot (two stable scalars) and the nonblocking read path —
// over the shared replica runtime, which owns the durable transaction
// lifecycle, recovery, and every background loop.
//
// The state split keeps the read path — handleStartTx, handleTxRead,
// handleSliceReq — off every mutex shared with the write path: the stable
// times are atomically published scalars, transaction contexts live in a
// striped map, and per-read working memory comes from pools — the paper's
// nonblocking-read property held at the implementation level.
type Server struct {
	cfg ServerConfig
	rt  *replica.Runtime
	// st aliases rt.Engine(); the zero-alloc slice-read path dereferences
	// it directly.
	st store.Engine

	// lst/rst are the stable times (LST, RST): lock-free monotonic
	// max-merge publication, loaded on every read.
	lst hlc.AtomicTimestamp
	rst hlc.AtomicTimestamp

	// txCtx holds open transaction contexts, keyed by TxID.
	txCtx *stripemap.Map[txContext]

	// readPool holds readScratch, fanPool holds fanin.Fanout scratch.
	readPool sync.Pool
	fanPool  sync.Pool

	// peerLocal/peerRemoteMin are the BiST aggregation arrays: the highest
	// local version clock and minimum remote entry each partition of the DC
	// has published to this one, by broadcast or on a transaction message.
	// Entrywise max-merged and folded without a lock (foldPeer), so slice
	// reads can carry and fold them.
	peerLocal     hlc.AtomicVector
	peerRemoteMin hlc.AtomicVector
	// seen is the highest commit timestamp this partition has heard of —
	// its own cohort commits and decisions, replicated-in batches, a peer's
	// seen (wire.Stab.Seen). News above the local version clock is the
	// demand for an apply pass; see ObserveStable.
	seen hlc.AtomicTimestamp

	metrics    Metrics
	ctxExpired *obs.Counter
}

// NewServer constructs a Wren partition server. Call Start to register it
// on the network and launch its background protocols.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.UseHLC {
		return nil, errors.New("core: UseHLC selects H-Cure; Wren always runs on hybrid logical clocks")
	}
	cfg.FillDefaults()
	if err := cfg.Validate("core"); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:           cfg,
		txCtx:         stripemap.New[txContext](0),
		peerLocal:     hlc.NewAtomicVector(cfg.NumPartitions),
		peerRemoteMin: hlc.NewAtomicVector(cfg.NumPartitions),
	}
	rt, err := replica.New("core", cfg, (*wrenProtocol)(s))
	if err != nil {
		return nil, err
	}
	s.rt = rt
	s.st = rt.Engine()
	reg := rt.Obs()
	s.metrics = Metrics{
		TxStarted:     reg.Counter("tx.started"),
		TxCommitted:   reg.Counter("tx.committed"),
		SlicesServed:  reg.Counter("read.slices_served"),
		ReplTxApplied: reg.Counter("repl.tx_applied"),
		GCRemoved:     reg.Counter("gc.removed"),
	}
	s.ctxExpired = reg.Counter("ctx.expired")
	// Open transaction contexts (each pins the version-GC floor), and what
	// each partition of the DC has contributed to the stable times:
	// stab.local.pN and stab.remote_min.pN are the highest local version
	// clock and minimum remote entry partition N published here, LST and
	// RST their minima. The partition holding a minimum is the straggler.
	reg.Func("ctx.open", func() uint64 { return uint64(s.txCtx.Len()) })
	for p := range cfg.NumPartitions {
		reg.Func(fmt.Sprintf("stab.local.p%d", p), func() uint64 { return uint64(s.peerLocal.Load(p)) })
		reg.Func(fmt.Sprintf("stab.remote_min.p%d", p), func() uint64 { return uint64(s.peerRemoteMin.Load(p)) })
	}
	s.readPool.New = func() any {
		rs := &readScratch{pred: cantorPred{localDC: uint8(cfg.DC)}}
		// Bind the method value once: reusing it is what keeps the
		// predicate allocation off the per-read path.
		rs.visible = rs.pred.visible
		return rs
	}
	s.fanPool.New = func() any { return &fanin.Fanout{} }
	return s, nil
}

// ID returns the server's node id.
func (s *Server) ID() transport.NodeID { return s.rt.ID() }

// Metrics returns the benchmark's view of the server's counters.
func (s *Server) Metrics() *Metrics { return &s.metrics }

// Obs returns the server's metrics registry: the runtime's, the protocol's,
// the engine's and the transaction log's counters and gauges.
func (s *Server) Obs() *obs.Registry { return s.rt.Obs() }

// Store exposes the underlying storage engine (read-only use in tests).
func (s *Server) Store() store.Engine { return s.st }

// EngineHealthy reports the first write-path failure the storage engine
// has recorded, or nil while it is fully healthy. A durable backend keeps
// acknowledging from memory after a log failure, so this is the signal
// benchmarks and operators poll to catch silently degraded durability.
func (s *Server) EngineHealthy() error { return s.st.Healthy() }

// Healthy reports the first durability failure of the server's write path
// — storage engine or transaction log — or nil while both are intact.
// Unlike the earlier poll-only signal, the server ACTS on this one: a
// degraded server sheds into read-only admission (see ReadOnly).
func (s *Server) Healthy() error { return s.rt.Healthy() }

// ReadOnly reports whether the server has shed into read-only admission:
// new prepares and commits are refused with a typed error while reads keep
// their nonblocking path. It flips as soon as the engine or the
// transaction log records a write-path failure — an acknowledgement whose
// durability promise cannot be kept must not be issued — and flips back if
// a probation repair succeeds (see ServerConfig.RepairInterval).
func (s *Server) ReadOnly() bool { return s.rt.Healthy() != nil }

// TxLog exposes the transaction log; read-only use in tests.
func (s *Server) TxLog() *txlog.Log { return s.rt.TxLog() }

// ShedRequests counts requests refused at per-connection admission (each
// answered with a BusyResp before any processing) since the server
// started.
func (s *Server) ShedRequests() uint64 { return s.rt.Obs().Value("admission.shed") }

// Start registers the server on the network and launches the shared
// runtime's apply, stabilization (ΔG), garbage-collection and lifecycle
// loops.
func (s *Server) Start() { s.rt.Start() }

// Stop terminates the background loops, flushes any transactions still on
// the commit list into the store, and closes the storage engine and the
// transaction log.
func (s *Server) Stop() { s.rt.Stop() }

// Kill stops the server WITHOUT the final apply/flush, simulating a hard
// kill for recovery tests: acknowledged-but-unapplied transactions stay
// out of the engine and must come back through transaction-log recovery.
func (s *Server) Kill() { s.rt.Kill() }

// StableTimes returns the server's current view of (LST, RST). The two
// scalars are loaded independently; each is monotone, and no protocol rule
// requires them to be read as a pair (StartTx re-establishes rt < lt
// itself).
func (s *Server) StableTimes() (lst, rst hlc.Timestamp) {
	return s.lst.Load(), s.rst.Load()
}

// VersionVector returns a copy of the server's version vector.
func (s *Server) VersionVector() []hlc.Timestamp {
	return s.rt.VV.Snapshot(nil)
}

// LocalVersionClock returns vv[m], the local snapshot installed by this
// partition.
func (s *Server) LocalVersionClock() hlc.Timestamp {
	return s.rt.VV.Load(s.cfg.DC)
}

// newTxID delegates to the runtime's durable id-block reservation.
func (s *Server) newTxID() uint64 { return s.rt.NewTxID() }

// visibleFunc builds the CANToR snapshot visibility predicate
// (Algorithm 3 lines 7–8): a local item is visible when ut ≤ lt ∧ rdt ≤ rt;
// a remote item when ut ≤ rt ∧ rdt ≤ lt.
func visibleFunc(localDC uint8, lt, rt hlc.Timestamp) store.VisibleFunc {
	return func(v *store.Version) bool {
		if v.SrcDC == localDC {
			return v.UT <= lt && v.RDT <= rt
		}
		return v.UT <= rt && v.RDT <= lt
	}
}

// wrenProtocol is the replica.Protocol implementation: the seam through
// which the shared runtime calls back into Wren's snapshot representation.
// It is a distinct type (not methods on Server) so the hook set stays out
// of the server's public API.
type wrenProtocol Server

func (p *wrenProtocol) server() *Server { return (*Server)(p) }

// AppendLocalPuts renders a locally committed transaction into engine
// versions: update time CT, remote dependency time RST, origin this DC.
func (p *wrenProtocol) AppendLocalPuts(dst []store.KV, t *txlog.CommittedTx, skip replica.SkipFunc) []store.KV {
	s := p.server()
	for _, kv := range t.Writes {
		if skip != nil && skip(kv.Key, t.TxID) {
			continue
		}
		dst = append(dst, store.KV{Key: kv.Key, Version: &store.Version{
			Value: kv.VersionValue(), UT: t.CT, RDT: t.RST, TxID: t.TxID, SrcDC: uint8(s.cfg.DC),
		}})
	}
	return dst
}

// AppendRemotePuts renders one replicated transaction from srcDC.
func (p *wrenProtocol) AppendRemotePuts(dst []store.KV, srcDC uint8, t *wire.ReplTx, skip replica.SkipFunc) []store.KV {
	for _, kv := range t.Writes {
		if skip != nil && skip(kv.Key, t.TxID) {
			continue
		}
		dst = append(dst, store.KV{Key: kv.Key, Version: &store.Version{
			Value: kv.VersionValue(), UT: t.CT, RDT: t.RST, TxID: t.TxID, SrcDC: srcDC,
		}})
	}
	return dst
}

// ReplTxRecord ships the scalar remote-dependency time with each
// replicated transaction — Wren's whole snapshot overhead is one
// timestamp (Figure 7a).
func (p *wrenProtocol) ReplTxRecord(t *txlog.CommittedTx) wire.ReplTx {
	return wire.ReplTx{TxID: t.TxID, CT: t.CT, RST: t.RST, Writes: t.Writes}
}

// ApplyBound reads the HLC and pins it — one receive event of the zero
// timestamp does both — so any later prepare proposes strictly above the
// bound. Called under the runtime's writer mutex.
func (p *wrenProtocol) ApplyBound() hlc.Timestamp {
	return p.server().rt.Clock.Update(0)
}

// ObserveCommitTS absorbs a commit timestamp this partition heard of into
// the HLC — the pass that follows can then cover it whatever the clock
// skew — and into seen, for the partitions that took no part in it.
func (p *wrenProtocol) ObserveCommitTS(ct hlc.Timestamp) {
	s := p.server()
	s.rt.Clock.Update(ct)
	s.seen.Advance(ct)
}

// AfterInstall folds what the pass just published as this partition's own
// BiST contribution. Wren's reads never wait for installation — that is
// the point of the protocol — so there is nobody to release.
func (p *wrenProtocol) AfterInstall() {
	s := p.server()
	local, remoteMin := s.localContribution()
	s.foldPeer(s.cfg.Partition, local, remoteMin)
}

// StampStable puts this partition's published BiST contribution and the
// highest commit timestamp it has heard of on an outgoing intra-DC
// transaction message. Loads only: a stamp is never a clock reading.
func (p *wrenProtocol) StampStable(st *wire.Stab) { p.server().stampStable(st) }

func (s *Server) stampStable(st *wire.Stab) {
	st.Local, st.RemoteMin = s.localContribution()
	st.Seen = s.seen.Load()
}

// ObserveStable folds a peer partition's stamp: its contribution into the
// stable times, and its Seen as the demand rule. A commit this partition
// took no part in reaches it only as a peer's Seen; if that is above the
// local version clock there is something to install — or just a clock to
// move — and the DC's LST is waiting for it: let the HLC absorb the
// timestamp and have the apply goroutine run a pass. Only NEWS fires (seen
// moved), and after the pass the clock covers it, so nothing more fires
// until the next commit; a stamp that is late, duplicated or out of order
// is a no-op, every fold being a max-merge. Lock- and allocation-free:
// slice reads carry stamps too.
func (p *wrenProtocol) ObserveStable(fromPartition int, st wire.Stab) {
	s := p.server()
	if fromPartition < 0 || fromPartition >= s.cfg.NumPartitions {
		return
	}
	s.foldPeer(fromPartition, st.Local, st.RemoteMin)
	if s.seen.Advance(st.Seen) && st.Seen > s.rt.VV.Load(s.cfg.DC) {
		s.rt.Clock.Update(st.Seen)
		s.rt.KickApply()
	}
}

// GossipTick runs one BiST round.
func (p *wrenProtocol) GossipTick() { p.server().gossipTick() }

// OldestActiveSnapshot expires abandoned transaction contexts and returns
// the oldest snapshot time a surviving transaction still needs — or the
// current stable time when idle (paper §IV-B). A Wren snapshot is a PAIR:
// local versions become visible by lt, versions replicated from another DC
// by rt, which lags lt. With more than one DC the floor is therefore taken
// over both times; a floor at lt alone would let GC keep a remote version
// with rt < ut ≤ lt as the newest one "below the snapshot", drop the
// version under it, and leave the key reading as absent until rt caught
// up. The kept version is always visible to the snapshot: its update time
// is at most min(lt, rt) and its dependency time is below its update time.
// With one DC nothing is ever replicated in and the floor stays lt.
//
// The floor is loaded under the runtime's SnapMu barrier: every in-flight
// snapshot assignment drains first, so any context the Range below cannot
// see yet was assigned times ≥ this floor and needs no protection from it.
func (p *wrenProtocol) OldestActiveSnapshot(now time.Time) hlc.Timestamp {
	s := p.server()
	multiDC := s.cfg.NumDCs > 1
	s.rt.SnapMu.Lock()
	oldest := s.lst.Load()
	if multiDC {
		// The rt the next StartTx would assign (see handleStartTx).
		oldest = hlc.Min(s.rst.Load(), oldest.Prev())
	}
	s.rt.SnapMu.Unlock()
	var expired []uint64
	s.txCtx.Range(func(id uint64, ctx txContext) bool {
		if now.Sub(ctx.created) > s.cfg.TxContextTTL {
			expired = append(expired, id)
			return true
		}
		oldest = hlc.Min(oldest, ctx.lt)
		if multiDC {
			oldest = hlc.Min(oldest, ctx.rt)
		}
		return true
	})
	for _, id := range expired {
		if _, ok := s.txCtx.LoadAndDelete(id); ok {
			s.ctxExpired.Inc()
		}
	}
	return oldest
}

// OnStop is a no-op: Wren parks no readers.
func (p *wrenProtocol) OnStop(bool) {}

// HandleMessage dispatches the snapshot-carrying messages the runtime
// forwards to the protocol.
func (p *wrenProtocol) HandleMessage(from transport.NodeID, m wire.Message) {
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
	case *wire.ScanReq:
		s.handleScanReq(from, msg)
	case *wire.PrepareReq:
		s.handlePrepareReq(from, msg)
	case *wire.StableBroadcast:
		s.handleStableBroadcast(msg)
	}
}

// handleStartTx implements Algorithm 2 lines 1–6: refresh the server's
// stable times with the client's, then assign the transaction snapshot
// (lst, min(rst, lst−1)). SnapMu is held SHARED around the assignment so
// GC's exclusive floor load can never miss a context it must protect. The
// session's previous transaction, when it ended without a COMMIT round,
// is released first (m.Done), so a session holds one context at a time.
func (s *Server) handleStartTx(from transport.NodeID, m *wire.StartTxReq) {
	if m.Done != 0 {
		s.txCtx.Delete(m.Done)
	}
	s.lst.Advance(m.LST)
	s.rst.Advance(m.RST)
	id := s.rt.NewTxID()
	s.rt.SnapMu.RLock()
	lt := s.lst.Load()
	rt := hlc.Min(s.rst.Load(), lt.Prev())
	s.txCtx.Store(id, txContext{lt: lt, rt: rt, created: time.Now()})
	s.rt.SnapMu.RUnlock()

	s.metrics.TxStarted.Inc()
	s.rt.Send(from, &wire.StartTxResp{ReqID: m.ReqID, TxID: id, LST: lt, RST: rt})
}

// handleTxRead implements Algorithm 2 lines 7–16: fan the key set out to
// the responsible partitions and merge the slices via a completion-counter
// fan-in — the last arriving SliceResp assembles and sends the TxReadResp,
// so no goroutine parks per in-flight read and no server-wide lock is
// taken.
func (s *Server) handleTxRead(from transport.NodeID, m *wire.TxReadReq) {
	ctx, ok := s.txCtx.Load(m.TxID)
	if !ok {
		// Unknown (expired or released) transaction: say so, so the client
		// fails instead of taking the empty reply for "no key exists".
		s.rt.Send(from, &wire.TxReadResp{ReqID: m.ReqID, Expired: true})
		return
	}
	lt, rt := ctx.lt, ctx.rt

	// Per-connection admission: a pooled link multiplexing thousands of
	// sessions must not be allowed to flood the fan-in tables; past the
	// bound the request is refused before any slice work happens, and the
	// client's retry policy backs off. Released when the last slice
	// arrives (here or in the runtime's SliceResp handler) or when the GC
	// sweep expires a stale fan-in.
	if !s.rt.AdmitClient(from) {
		s.rt.Shed(from, m.ReqID)
		return
	}

	fo := s.fanPool.Get().(*fanin.Fanout)
	fo.Reset(s.cfg.NumPartitions)
	for _, k := range m.Keys {
		fo.Add(sharding.PartitionOf(k, s.cfg.NumPartitions), k)
	}
	remote := len(fo.Touched)
	if len(fo.Groups[s.cfg.Partition]) > 0 {
		remote--
	}

	fi := fanin.Start(from, m.ReqID, remote)
	var stab wire.Stab
	if remote > 0 {
		s.stampStable(&stab)
	}

	// Keys this partition owns are served locally with one batched store
	// read instead of a self-addressed SliceReq round trip, appending
	// straight into the response buffer: this runs before any remote
	// registration, so nothing can race the append and no staging copy
	// is paid.
	if localKeys := fo.Groups[s.cfg.Partition]; len(localKeys) > 0 {
		fi.SetItems(s.readSlice(localKeys, lt, rt, fi.Items()))
		s.metrics.SlicesServed.Inc()
	}

	for _, p := range fo.Touched {
		if p == s.cfg.Partition {
			continue
		}
		reqID := s.rt.NextReqID()
		req := wire.GetSliceReq()
		req.ReqID, req.LT, req.RT, req.Stab = reqID, lt, rt, stab
		req.Keys = append(req.Keys[:0], fo.Groups[p]...)
		s.rt.TrackRead(reqID, fi)
		s.rt.Send(transport.ServerID(s.cfg.DC, p), req)
	}
	s.fanPool.Put(fo)

	// Release the coordinator's own contribution; when every remote slice
	// already answered (or none was needed), this assembles the response.
	if resp, to, last := fi.Finish(); last {
		s.rt.ReleaseClient(to)
		s.rt.Send(to, resp)
	}
}

// handleSliceReq implements Algorithm 3 lines 1–12: refresh stable times
// and return the freshest visible version of each key — without blocking
// and without acquiring any server-wide mutex. The response message and
// its item buffer come from pools; the receiver releases them.
func (s *Server) handleSliceReq(from transport.NodeID, m *wire.SliceReq) {
	s.lst.Advance(m.LT)
	s.rst.Advance(m.RT)
	s.rt.ObserveStable(from, m.Stab)

	resp := wire.GetSliceResp()
	resp.ReqID = m.ReqID
	s.stampStable(&resp.Stab)
	resp.Items = s.readSlice(m.Keys, m.LT, m.RT, resp.Items[:0])
	s.metrics.SlicesServed.Inc()
	s.rt.Send(from, resp)
	wire.PutSliceReq(m)
}

// handleScanReq serves one partition's share of a range scan on the same
// nonblocking snapshot path as slice reads: the CANToR predicate decides
// visibility per version, the engine streams its keyspace in order, and
// nothing ever waits for replication. Tombstones are elided by the engine;
// a per-partition Limit truncates the stream and flags More so the client
// knows this partition was not exhausted.
func (s *Server) handleScanReq(from transport.NodeID, m *wire.ScanReq) {
	s.lst.Advance(m.LT)
	s.rst.Advance(m.RT)

	resp := &wire.ScanResp{ReqID: m.ReqID}
	if m.Limit > 0 {
		resp.Items = make([]wire.Item, 0, min(m.Limit, 1024))
	}
	rs := s.readPool.Get().(*readScratch)
	rs.pred.lt, rs.pred.rt = m.LT, m.RT
	// A scan error means a failed storage backend; it already surfaces
	// through Healthy and write admission, so the reply carries whatever
	// prefix was streamed before the fault.
	_ = s.st.Scan(m.Start, m.End, rs.visible, func(k string, v *store.Version) bool {
		if m.Limit > 0 && uint64(len(resp.Items)) >= m.Limit {
			resp.More = true
			return false
		}
		resp.Items = append(resp.Items, wire.Item{
			Key: k, Value: v.Value, UT: v.UT, RDT: v.RDT, TxID: v.TxID, SrcDC: v.SrcDC,
		})
		return true
	})
	s.readPool.Put(rs)
	s.metrics.SlicesServed.Inc()
	s.rt.Send(from, resp)
}

// readSlice resolves keys under the CANToR snapshot (lt, rt) with one
// batched store pass — one read-lock acquisition per touched shard — and
// appends the visible items to dst, which it returns. In steady state it
// allocates nothing: the bound predicate and the version buffer come from
// the server's read pool. A visible tombstone means the key is deleted in
// this snapshot — it hides older versions and is reported as absence (no
// item), like a key never written.
func (s *Server) readSlice(keys []string, lt, rt hlc.Timestamp, dst []wire.Item) []wire.Item {
	rs := s.readPool.Get().(*readScratch)
	rs.pred.lt, rs.pred.rt = lt, rt
	rs.vers = s.st.ReadVisibleBatchInto(keys, rs.visible, rs.vers)
	for i, v := range rs.vers {
		if v != nil && v.Value != nil {
			dst = append(dst, wire.Item{
				Key: keys[i], Value: v.Value, UT: v.UT, RDT: v.RDT, TxID: v.TxID, SrcDC: v.SrcDC,
			})
		}
	}
	clear(rs.vers) // don't pin GC-able version chains while idle in the pool
	s.readPool.Put(rs)
	return dst
}

// handleCommitReq resolves the transaction's snapshot and hands the 2PC to
// the runtime (Algorithm 2 lines 17–28); each cohort's PrepareReq carries
// the snapshot scalars and the proposal floor ht.
func (s *Server) handleCommitReq(from transport.NodeID, m *wire.CommitReq) {
	ctx, ok := s.txCtx.LoadAndDelete(m.TxID)
	var lt, rt hlc.Timestamp
	if ok {
		lt, rt = ctx.lt, ctx.rt
	} else {
		// Context expired (or read-only cleanup racing): fall back to the
		// server's current stable times; commit timestamps proposed below
		// still exceed every snapshot the client has seen via hwt.
		lt, rt = s.lst.Load(), s.rst.Load()
	}
	ht := hlc.Max(lt, rt, m.HWT) // Algorithm 2 line 19
	s.rt.Commit(from, m, func() *wire.PrepareReq {
		return &wire.PrepareReq{LT: lt, RT: rt, HT: ht}
	})
}

// handlePrepareReq refreshes the stable times and hands the cohort side of
// the 2PC to the runtime: propose strictly past everything the client has
// seen (Algorithm 3 lines 13–19).
func (s *Server) handlePrepareReq(from transport.NodeID, m *wire.PrepareReq) {
	s.lst.Advance(m.LT)
	s.rst.Advance(m.RT)
	s.rt.ObserveStable(from, m.Stab)
	s.rt.Prepare(from, m, hlc.Max(m.HT, m.LT, m.RT))
}

// handleStableBroadcast ingests a peer partition's BiST contribution
// (Algorithm 4 lines 29–31).
func (s *Server) handleStableBroadcast(m *wire.StableBroadcast) {
	p := int(m.Partition)
	if p < 0 || p >= s.cfg.NumPartitions {
		return
	}
	s.foldPeer(p, m.Local, m.RemoteMin)
}

// foldPeer max-merges partition p's contribution into the aggregation
// arrays and, if it moved either, republishes LST and RST as the minima.
// It is the one fold behind the timed broadcast, the stamps on transaction
// messages and this server's own passes, and it takes no lock: entries
// only grow, so a minimum over entries loaded at slightly different
// instants is at most the true minimum at the last load, and publication
// is an atomic max-merge — concurrent folds can neither move a stable time
// backwards nor past what every partition has published.
func (s *Server) foldPeer(p int, local, remoteMin hlc.Timestamp) {
	movedLocal := s.peerLocal[p].Advance(local)
	movedRemote := s.peerRemoteMin[p].Advance(remoteMin)
	if !movedLocal && !movedRemote {
		return
	}
	lst, rst := s.peerLocal.Load(0), s.peerRemoteMin.Load(0)
	for i := 1; i < s.cfg.NumPartitions; i++ {
		if t := s.peerLocal.Load(i); t < lst {
			lst = t
		}
		if t := s.peerRemoteMin.Load(i); t < rst {
			rst = t
		}
	}
	s.lst.Advance(lst)
	s.rst.Advance(rst)
}

// localContribution returns this server's own BiST scalars: its local
// version clock and the minimum over its remote version-vector entries.
// The vector is loaded entry-by-entry from the runtime's atomic vector;
// each entry is monotone, so the min over entries loaded at slightly
// different instants is still a valid (conservative) remote floor.
func (s *Server) localContribution() (local, remoteMin hlc.Timestamp) {
	local = s.rt.VV.Load(s.cfg.DC)
	if s.cfg.NumDCs == 1 {
		// With a single site there are no remote dependencies; the remote
		// stable time tracks the local one.
		return local, local
	}
	first := true
	for i := 0; i < s.cfg.NumDCs; i++ {
		if i == s.cfg.DC {
			continue
		}
		if t := s.rt.VV.Load(i); first || t < remoteMin {
			remoteMin = t
			first = false
		}
	}
	return local, remoteMin
}

// gossipTick runs one BiST exchange: fold in this server's own
// contribution, then broadcast it to every other partition of the DC. It
// is the idle fallback: partitions that exchange transaction messages
// learn the same scalars from those.
func (s *Server) gossipTick() {
	local, remoteMin := s.localContribution()
	s.foldPeer(s.cfg.Partition, local, remoteMin)
	msg := &wire.StableBroadcast{
		Partition: uint16(s.cfg.Partition), Local: local, RemoteMin: remoteMin,
	}
	for p := 0; p < s.cfg.NumPartitions; p++ {
		if p == s.cfg.Partition {
			continue
		}
		s.rt.SendBounded(transport.ServerID(s.cfg.DC, p), msg)
	}
}

var _ replica.Protocol = (*wrenProtocol)(nil)
