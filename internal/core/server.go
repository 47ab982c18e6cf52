package core

import (
	"errors"
	"fmt"
	"sync"

	"wren/internal/hlc"
	"wren/internal/obs"
	"wren/internal/replica"
	"wren/internal/store"
	"wren/internal/transport"
	"wren/internal/txlog"
	"wren/internal/wire"
)

// DefaultGCInterval is the version-GC period a zero GCInterval selects.
const DefaultGCInterval = replica.DefaultGCInterval

// ServerConfig configures one Wren partition server p_n^m. UseHLC, the one
// protocol switch, is Cure's and is refused.
type ServerConfig = replica.Config

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
// the CANToR snapshot (two stable scalars) and the nonblocking slice read —
// over the embedded replica runtime, which owns the coordinator, the
// durable transaction lifecycle, recovery, and every background loop.
//
// The state split keeps the read path — StartTx, the read fan-out,
// handleSliceReq — off every mutex shared with the write path: the stable
// times are atomically published scalars, transaction contexts live in a
// striped map, and per-read working memory comes from pools — the paper's
// nonblocking-read property held at the implementation level.
type Server struct {
	*replica.Runtime
	cfg ServerConfig

	// lst/rst are the stable times (LST, RST): lock-free monotonic
	// max-merge publication, loaded on every read.
	lst hlc.AtomicTimestamp
	rst hlc.AtomicTimestamp

	// readPool holds readScratch.
	readPool sync.Pool

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

	metrics Metrics
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
		peerLocal:     hlc.NewAtomicVector(cfg.NumPartitions),
		peerRemoteMin: hlc.NewAtomicVector(cfg.NumPartitions),
	}
	rt, err := replica.New("core", cfg, (*wrenProtocol)(s))
	if err != nil {
		return nil, err
	}
	s.Runtime = rt
	reg := rt.Obs()
	s.metrics = Metrics{
		TxStarted:     reg.Counter("tx.started"),
		TxCommitted:   reg.Counter("tx.committed"),
		SlicesServed:  reg.Counter("read.slices_served"),
		ReplTxApplied: reg.Counter("repl.tx_applied"),
		GCRemoved:     reg.Counter("gc.removed"),
	}
	// What each partition of the DC has contributed to the stable times:
	// stab.local.pN and stab.remote_min.pN are the highest local version
	// clock and minimum remote entry partition N published here, LST and
	// RST their minima. The partition holding a minimum is the straggler.
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
	return s, nil
}

// Metrics returns the benchmark's view of the server's counters.
func (s *Server) Metrics() *Metrics { return &s.metrics }

// StableTimes returns the server's current view of (LST, RST). The two
// scalars are loaded independently; each is monotone, and no protocol rule
// requires them to be read as a pair (StartTx re-establishes rt < lt
// itself).
func (s *Server) StableTimes() (lst, rst hlc.Timestamp) {
	return s.lst.Load(), s.rst.Load()
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
	return p.Clock.Update(0)
}

// ObserveCommitTS absorbs a commit timestamp this partition heard of into
// the HLC — the pass that follows can then cover it whatever the clock
// skew — and into seen, for the partitions that took no part in it.
func (p *wrenProtocol) ObserveCommitTS(ct hlc.Timestamp) {
	s := p.server()
	s.Clock.Update(ct)
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
func (p *wrenProtocol) StampStable() wire.Stab { return p.server().stamp() }

func (s *Server) stamp() wire.Stab {
	local, remoteMin := s.localContribution()
	return wire.Stab{Local: local, RemoteMin: remoteMin, Seen: s.seen.Load()}
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
	if s.seen.Advance(st.Seen) && st.Seen > s.VV.Load(s.cfg.DC) {
		s.Clock.Update(st.Seen)
		s.KickApply()
	}
}

// GossipTick runs one BiST exchange: fold in this server's own
// contribution, then broadcast it to every other partition of the DC. It
// is the idle fallback: partitions that exchange transaction messages
// learn the same scalars from those.
func (p *wrenProtocol) GossipTick() {
	s := p.server()
	local, remoteMin := s.localContribution()
	s.foldPeer(s.cfg.Partition, local, remoteMin)
	msg := &wire.StableBroadcast{Partition: uint16(s.cfg.Partition), Local: local, RemoteMin: remoteMin}
	for q := 0; q < s.cfg.NumPartitions; q++ {
		if q != s.cfg.Partition {
			s.SendBounded(transport.ServerID(s.cfg.DC, q), msg)
		}
	}
}

// BeginSnapshot implements Algorithm 2 lines 1–6: refresh the server's
// stable times with the client's, then assign the transaction snapshot
// (lst, min(rst, lst−1)).
func (p *wrenProtocol) BeginSnapshot(m *wire.StartTxReq) replica.Snapshot {
	s := p.server()
	s.lst.Advance(m.LST)
	s.rst.Advance(m.RST)
	lt := s.lst.Load()
	return replica.Snapshot{LT: lt, RT: hlc.Min(s.rst.Load(), lt.Prev())}
}

// ExpiredSnapshot falls back to the server's current stable times;
// commit timestamps proposed under it still exceed every snapshot the
// client has seen, via hwt.
func (p *wrenProtocol) ExpiredSnapshot() replica.Snapshot {
	return replica.Snapshot{LT: p.lst.Load(), RT: p.rst.Load()}
}

// CommitFloor is Algorithm 2 line 19: ht = max(lt, rt, hwt).
func (p *wrenProtocol) CommitFloor(snap replica.Snapshot, hwt hlc.Timestamp) hlc.Timestamp {
	return hlc.Max(snap.LT, snap.RT, hwt)
}

// SnapshotFloor is the oldest version time the snapshot still needs (paper
// §IV-B). A Wren snapshot is a PAIR: local versions become visible by lt,
// versions replicated from another DC by rt, which lags lt. With more than
// one DC the floor is therefore taken over both times; a floor at lt alone
// would let GC keep a remote version with rt < ut ≤ lt as the newest one
// "below the snapshot", drop the version under it, and leave the key
// reading as absent until rt caught up. The kept version is always visible
// to the snapshot: its update time is at most min(lt, rt) and its
// dependency time is below its update time. With one DC nothing is ever
// replicated in and the floor stays lt.
func (p *wrenProtocol) SnapshotFloor(snap replica.Snapshot) hlc.Timestamp {
	if p.cfg.NumDCs > 1 {
		return hlc.Min(snap.LT, snap.RT)
	}
	return snap.LT
}

// StableFloor is the floor of the snapshot the next StartTx would assign.
func (p *wrenProtocol) StableFloor() hlc.Timestamp {
	lt := p.lst.Load()
	return p.SnapshotFloor(replica.Snapshot{LT: lt, RT: hlc.Min(p.rst.Load(), lt.Prev())})
}

// ReadOwnSlice serves the coordinator's own keys in place: a Wren slice
// read never waits.
func (p *wrenProtocol) ReadOwnSlice(keys []string, snap replica.Snapshot, dst []wire.Item) ([]wire.Item, bool) {
	return p.server().readSlice(keys, snap.LT, snap.RT, dst), true
}

// OnStop is a no-op: Wren parks no readers.
func (p *wrenProtocol) OnStop(bool) {}

// HandleMessage dispatches the messages the runtime forwards to the
// protocol.
func (p *wrenProtocol) HandleMessage(from transport.NodeID, m wire.Message) {
	s := p.server()
	switch msg := m.(type) {
	case *wire.SliceReq:
		s.handleSliceReq(from, msg)
	case *wire.ScanReq:
		s.handleScanReq(from, msg)
	case *wire.PrepareReq:
		s.handlePrepareReq(from, msg)
	case *wire.StableBroadcast:
		// A peer partition's timed BiST contribution (Algorithm 4 lines
		// 29–31): the same fold as a stamp's, with no news of a commit.
		p.ObserveStable(int(msg.Partition), wire.Stab{Local: msg.Local, RemoteMin: msg.RemoteMin})
	}
}

// handleSliceReq implements Algorithm 3 lines 1–12: refresh stable times
// and return the freshest visible version of each key — without blocking
// and without acquiring any server-wide mutex. The response message and
// its item buffer come from pools; the receiver releases them.
func (s *Server) handleSliceReq(from transport.NodeID, m *wire.SliceReq) {
	s.lst.Advance(m.LT)
	s.rst.Advance(m.RT)
	s.ObserveStable(from, m.Stab)

	resp := wire.GetSliceResp()
	resp.ReqID = m.ReqID
	resp.Stab = s.stamp()
	resp.Items = s.readSlice(m.Keys, m.LT, m.RT, resp.Items[:0])
	s.metrics.SlicesServed.Inc()
	s.Send(from, resp)
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
	_ = s.Store().Scan(m.Start, m.End, rs.visible, func(k string, v *store.Version) bool {
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
	s.Send(from, resp)
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
	rs.vers = s.Store().ReadVisibleBatchInto(keys, rs.visible, rs.vers)
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

// handlePrepareReq refreshes the stable times and hands the cohort side of
// the 2PC to the runtime: propose strictly past everything the client has
// seen (Algorithm 3 lines 13–19).
func (s *Server) handlePrepareReq(from transport.NodeID, m *wire.PrepareReq) {
	s.lst.Advance(m.LT)
	s.rst.Advance(m.RT)
	s.ObserveStable(from, m.Stab)
	s.Prepare(from, m, hlc.Max(m.HT, m.LT, m.RT))
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
	local = s.VV.Load(s.cfg.DC)
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
		if t := s.VV.Load(i); first || t < remoteMin {
			remoteMin = t
			first = false
		}
	}
	return local, remoteMin
}

var _ replica.Protocol = (*wrenProtocol)(nil)
