package cure

import (
	"sync"
	"time"

	"wren/internal/hlc"
	"wren/internal/obs"
	"wren/internal/replica"
	"wren/internal/store"
	"wren/internal/transport"
	"wren/internal/txlog"
	"wren/internal/wire"
)

// ServerConfig configures one Cure/H-Cure partition server; UseHLC, the
// one protocol switch, selects H-Cure.
type ServerConfig = replica.Config

// waiter is a parked slice read whose snapshot is not yet installed — the
// blocking behaviour that Wren eliminates. It holds the request itself,
// which goes back to the message pool once the read is served or failed.
type waiter struct {
	from    transport.NodeID
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

// readScratch is the pooled per-read working set: the bound predicate and
// the version buffer.
type readScratch struct {
	pred    curePred
	visible store.VisibleFunc
	vers    []*store.Version
}

// Server is one Cure/H-Cure partition server: the vector-snapshot half —
// snapshot-vector assignment, the parked-reader (blocking) slice read, and
// the full-vector stabilization gossip — over the embedded replica
// runtime, which owns the coordinator, the durable transaction lifecycle,
// recovery, and every background loop.
//
// The slice read is lock-free where the protocol allows: the version
// vector and global stable vector are atomically published, so the
// installed-snapshot check on every slice read takes no lock. What remains
// under s.mu is the parked-reader list and the gossip aggregation — the
// blocking that defines this baseline.
type Server struct {
	*replica.Runtime
	cfg ServerConfig

	// gsv is the global stable vector from gossip (entrywise min over
	// peers): entrywise-monotone, loaded lock-free on the read path.
	gsv hlc.AtomicVector

	readPool sync.Pool

	// mu guards the parked-reader list and the gossip aggregation.
	// Protocol-only state: disjoint from the runtime's writer mutex.
	mu      sync.Mutex
	waiters []*waiter
	peerVV  [][]hlc.Timestamp // last gossiped VV per peer partition

	// The slice read's counters in the server's registry (Obs); read.blocked
	// and read.blocked_us feed the paper's Figure 3b.
	slicesServed, blockedReads, blockedMicros *obs.Counter
}

// NewServer constructs a Cure or H-Cure partition server.
func NewServer(cfg ServerConfig) (*Server, error) {
	cfg.FillDefaults()
	if err := cfg.Validate("cure"); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		gsv:    hlc.NewAtomicVector(cfg.NumDCs),
		peerVV: make([][]hlc.Timestamp, cfg.NumPartitions),
	}
	for p := range s.peerVV {
		s.peerVV[p] = make([]hlc.Timestamp, cfg.NumDCs)
	}
	rt, err := replica.New("cure", cfg, (*cureProtocol)(s))
	if err != nil {
		return nil, err
	}
	s.Runtime = rt
	reg := rt.Obs()
	s.slicesServed = reg.Counter("read.slices_served")
	s.blockedReads, s.blockedMicros = reg.Counter("read.blocked"), reg.Counter("read.blocked_us")
	s.readPool.New = func() any {
		rs := &readScratch{}
		rs.visible = rs.pred.visible
		return rs
	}
	return s, nil
}

// StableVector returns a copy of the server's global stable vector.
func (s *Server) StableVector() []hlc.Timestamp {
	return s.gsv.Snapshot(nil)
}

// now returns the coordinator clock reading used for snapshot local
// entries: the HLC for H-Cure, the raw physical clock for Cure.
func (s *Server) now() hlc.Timestamp {
	if s.cfg.UseHLC {
		return s.Clock.Now()
	}
	return s.Clock.PhysicalNow()
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
	ub := p.server().now()
	p.Clock.Update(ub)
	return ub
}

// ObserveCommitTS absorbs a commit timestamp this partition heard of into
// the clock — only H-Cure's HLC may jump; plain Cure's physical clock must
// not.
func (p *cureProtocol) ObserveCommitTS(ct hlc.Timestamp) {
	s := p.server()
	if s.cfg.UseHLC {
		s.Clock.Update(ct)
	}
}

// AfterInstall releases parked slice reads whose snapshot the advanced
// version vector now covers — the wakeup half of Cure's blocking reads.
func (p *cureProtocol) AfterInstall() {
	s := p.server()
	s.mu.Lock()
	ready := s.releaseWaitersLocked()
	s.mu.Unlock()
	for _, w := range ready {
		s.serveSlice(w.from, w.req, time.Since(w.arrived))
	}
}

// StampStable and ObserveStable stamp and fold nothing: Cure's
// stabilization state is an M-entry vector per partition, which stays on
// its ΔG broadcast instead of riding the transaction messages.
func (p *cureProtocol) StampStable() wire.Stab { return wire.Stab{} }

// ObserveStable: see StampStable.
func (p *cureProtocol) ObserveStable(int, wire.Stab) {}

// GossipTick broadcasts the full M-entry version vector — Cure's
// stabilization messages are M timestamps versus Wren's two (Figure 7a).
func (p *cureProtocol) GossipTick() {
	s := p.server()
	vvCopy := s.VV.Snapshot(nil)
	s.mu.Lock()
	maxInto(s.peerVV[s.cfg.Partition], vvCopy)
	s.recomputeStableLocked()
	s.mu.Unlock()

	msg := &wire.StableBroadcast{Partition: uint16(s.cfg.Partition), VV: vvCopy}
	for q := 0; q < s.cfg.NumPartitions; q++ {
		if q == s.cfg.Partition {
			continue
		}
		s.SendBounded(transport.ServerID(s.cfg.DC, q), msg)
	}
}

// BeginSnapshot assigns the snapshot vector: remote entries from the
// stable vector, the local entry from the coordinator's CURRENT clock —
// the design choice that makes Cure reads block — raised to the client's
// dependency vector.
func (p *cureProtocol) BeginSnapshot(m *wire.StartTxReq) replica.Snapshot {
	sv := p.gsv.Snapshot(nil)
	sv[p.cfg.DC] = p.server().now()
	if len(m.DV) == len(sv) {
		maxInto(sv, m.DV)
	}
	return replica.Snapshot{SV: sv}
}

// ExpiredSnapshot assigns a fresh snapshot vector, as BeginSnapshot does
// but without the client's dependency vector, which the expired context
// held.
func (p *cureProtocol) ExpiredSnapshot() replica.Snapshot {
	return p.BeginSnapshot(&wire.StartTxReq{})
}

// CommitFloor is the snapshot's local entry, raised to the client's last
// write: cohorts propose above it.
func (p *cureProtocol) CommitFloor(snap replica.Snapshot, hwt hlc.Timestamp) hlc.Timestamp {
	return hlc.Max(hwt, snap.SV[p.cfg.DC])
}

// SnapshotFloor is a conservative scalar GC bound for the snapshot: its
// minimum entry.
func (p *cureProtocol) SnapshotFloor(snap replica.Snapshot) hlc.Timestamp {
	return hlc.Min(snap.SV...)
}

// StableFloor is the minimum entry of the stable vector and the local
// version clock.
func (p *cureProtocol) StableFloor() hlc.Timestamp {
	oldest := p.VV.Load(p.cfg.DC)
	for i := 0; i < p.cfg.NumDCs; i++ {
		oldest = hlc.Min(oldest, p.gsv.Load(i))
	}
	return oldest
}

// ReadOwnSlice declines: even the coordinator's own slice goes through
// handleSliceReq, which may legitimately park it — the blocking this
// baseline exists to exhibit.
func (*cureProtocol) ReadOwnSlice(_ []string, _ replica.Snapshot, dst []wire.Item) ([]wire.Item, bool) {
	return dst, false
}

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
		s.Send(w.from, &wire.SliceResp{ReqID: w.req.ReqID})
		wire.PutSliceReq(w.req)
	}
}

// HandleMessage dispatches the messages the runtime forwards to the
// protocol.
func (p *cureProtocol) HandleMessage(from transport.NodeID, m wire.Message) {
	s := p.server()
	switch msg := m.(type) {
	case *wire.SliceReq:
		s.handleSliceReq(from, msg)
	case *wire.PrepareReq:
		// The cohort side of the 2PC: Cure proposes from the (possibly
		// lagging) physical clock via the HLC's TickPast; H-Cure's HLC can
		// jump.
		s.Prepare(from, msg, msg.HT)
	case *wire.StableBroadcast:
		s.handleStableBroadcast(msg)
	}
}

// handleSliceReq serves the read if the snapshot is installed — every
// version-vector entry has reached the snapshot's; otherwise it PARKS the
// request until the apply loop or replication catches up. This is the
// blocking that Wren's CANToR protocol eliminates. The installed check is
// lock-free — the version vector is entrywise-monotone, so a true result
// never reverts — and only parking takes a lock.
func (s *Server) handleSliceReq(from transport.NodeID, m *wire.SliceReq) {
	if s.cfg.UseHLC {
		// H-Cure: the HLC absorbs the snapshot timestamp, so an idle
		// partition's clock no longer lags the coordinator's.
		s.Clock.Update(m.SV[s.cfg.DC])
	}
	if s.VV.Covers(m.SV) {
		s.serveSlice(from, m, 0)
		return
	}
	s.mu.Lock()
	// Re-check under the lock: a concurrent vv advance that ran its waiter
	// release before we parked would otherwise be a lost wakeup.
	if s.VV.Covers(m.SV) {
		s.mu.Unlock()
		s.serveSlice(from, m, 0)
		return
	}
	s.waiters = append(s.waiters, &waiter{from: from, req: m, arrived: time.Now()})
	s.mu.Unlock()
	// Try to install a fresher snapshot right away: if nothing is pending
	// and the clock allows, the read is served without waiting for the
	// next apply pass. What remains is genuine blocking: pending
	// transactions below the snapshot, clock skew (Cure only), or missing
	// remote updates.
	s.ApplyTick()
}

// serveSlice answers m with the freshest version of each key whose
// dependency vector is within the snapshot, then releases m. The response
// and its working memory come from pools; the receiver releases the
// response.
func (s *Server) serveSlice(to transport.NodeID, m *wire.SliceReq, blocked time.Duration) {
	rs := s.readPool.Get().(*readScratch)
	rs.pred.sv = m.SV
	rs.vers = s.Store().ReadVisibleBatchInto(m.Keys, rs.visible, rs.vers)
	resp := wire.GetSliceResp()
	resp.ReqID = m.ReqID
	for i, v := range rs.vers {
		// A visible tombstone (nil Value) reads as absence, hiding any
		// older live version.
		if v != nil && v.Value != nil {
			resp.Items = append(resp.Items, wire.Item{
				Key: m.Keys[i], Value: v.Value, UT: v.UT, TxID: v.TxID, SrcDC: v.SrcDC, DV: v.DV,
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
	s.Send(to, resp)
	wire.PutSliceReq(m)
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
		if s.VV.Covers(w.req.SV) {
			ready = append(ready, w)
		} else {
			rest = append(rest, w)
		}
	}
	s.waiters = rest
	return ready
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
