// Package replica is the protocol-agnostic replica runtime shared by the
// Wren (internal/core) and Cure/H-Cure (internal/cure) partition servers.
//
// The two protocols differ only in their snapshot representation — Wren's
// two stable scalars (LST, RST) against Cure's stability vector — and in
// the read-visibility rule that representation induces. Everything else a
// partition server does is protocol-independent and lives here exactly
// once:
//
//   - the durable transaction lifecycle: prepare/commit logging under the
//     txlog package's durability contract (the transaction log is the one
//     fsync-before-ack point; the engine's logs are synced only by the
//     release barrier), CommitAck resolution, cooperative 2PC termination
//     probes, and the periodic redrive of unresolved decisions;
//   - restart recovery: replay of committed-but-unapplied transactions;
//   - durable transaction-id block reservation;
//   - the install-and-publish pass (Algorithm 4's apply step), run by the
//     apply goroutine when an event that makes something newly stable wakes
//     it and on its ΔR tick, the idle fallback; and the gossip (ΔG), GC and
//     lifecycle timer loops;
//   - one replication stream per peer DC (below);
//   - health-driven read-only admission, including the degraded-mode
//     probation exit that re-verifies and readmits a transiently broken
//     transaction log.
//
// # One replication stream per peer DC
//
// A partition ships its commits to its replica in each other DC as one
// in-order stream, go-back-N from the transaction log's durable
// replication cursor for that DC: like PNUTS's per-site broker stream, a
// replica is behind by a prefix, never by a hole. A stream's state is the
// cursor, sent — the commit timestamp of the last transaction shipped,
// which the next batch carries as its Prev — and a rewind flag. The rules:
//
//   - Only ship sends Replicate, on the apply goroutine after its pass:
//     the batches passes queued, in commit-timestamp order, each chained
//     to its predecessor by Prev. A batch MUST NOT split a commit
//     timestamp: a receiver takes a batch ending at its watermark for a
//     duplicate.
//   - A rewind MUST re-send the log's records above the cursor only up to
//     the published local clock VV[self], loaded before the queue is taken:
//     above it a commit can still land below what was shipped, and the
//     receiver would drop it as a duplicate. Its first batch carries Prev 0
//     and starts at the cursor; every later one is chained.
//   - A transaction MUST be in the log before a pass can install it
//     (handleCommitTx logs the commit under mu), and recovery MUST publish
//     VV[self] over the commits it replays: a rewind reads only the log,
//     and a commit it misses below sent is never shipped.
//   - A receiver MUST refuse, unapplied and unacknowledged, a batch whose
//     Prev is above its watermark. It then applies in order from a prefix
//     it holds — a rewind's first batch starts at the cursor, which it
//     acknowledged — so its watermark is a prefix of the stream.
//   - An acknowledgement MUST follow the engine barrier that covers the
//     batch (release). An acknowledgement up to t therefore vouches for
//     every transaction at or below t: the cursor only ever covers a
//     contiguous prefix, and the log may forget what it covers, with no pin.
//   - New rewinds every stream; a send SendBounded gives up on stops the
//     stream for the call and leaves a rewind for the next; a stream whose
//     cursor has not moved for rewindStallTicks lifecycle ticks while sent is
//     above it is rewound. A heartbeat goes only to a DC whose stream is
//     caught up.
//
// # One coordinator
//
// The coordinator half of a partition server is protocol-independent too
// and lives here once (coordinator.go): the table of open transaction
// contexts, StartTx, the read fan-out with its completion-counter fan-in,
// the commit entry, admission, and — on the GC tick — context expiry and
// the minimum over open snapshots. A context holds a Snapshot, the union
// the wire already carries: Wren's two stable times or Cure's vector.
//
// A protocol plugs in through the Protocol interface, which is what the
// paper says differs: how a committed transaction's writes render into
// engine versions and replication records, how the apply upper bound
// follows the clock, how a snapshot is assigned and what it keeps from
// GC, the commit floor, whether the coordinator reads its own keys in
// place, the stability gossip, and the handlers for the messages that read
// or prepare under a snapshot (SliceReq, ScanReq, PrepareReq,
// StableBroadcast). The seam is deliberately small so a third snapshot
// representation — e.g. the per-(partition, DC) cursors partial
// replication needs — slots in without touching the lifecycle machinery.
//
// The package is split by concern:
//
//   - runtime.go: the Protocol seam, the Runtime and its accessors, New,
//     Start/Stop and the message dispatch;
//   - config.go: Config, its defaults and validation, and the runtime's
//     fixed timings and sizes;
//   - coordinator.go: the transaction contexts, StartTx, the read fan-out
//     and fan-in, the commit entry and per-connection admission;
//   - commit.go: both sides of the two-phase commit, the decision record,
//     transaction ids and the TxStatus termination probes;
//   - apply.go: the apply goroutine and pass, install, the release barrier
//     and the shutdown flush;
//   - replicate.go: the replication streams, receiving and acknowledging
//     their batches and heartbeats, and gap refusal;
//   - lifecycle.go: restart recovery, the timer loops, the stall rewind,
//     GC with context expiry, the repair probe, and health (Healthy,
//     ReadOnly and the health probe).
package replica

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"wren/internal/fanin"
	"wren/internal/hlc"
	"wren/internal/obs"
	"wren/internal/store"
	"wren/internal/store/backend"
	"wren/internal/stripemap"
	"wren/internal/transport"
	"wren/internal/txlog"
	"wren/internal/wire"
)

// SkipFunc is the per-key idempotence check the runtime passes to the
// Protocol's put renderers during recovery replay and resync application:
// it reports whether the engine already holds key's version from txID, in
// which case the write must not be re-inserted. Per KEY, not per
// transaction — a kill can land mid-PutBatch, leaving some of a
// transaction's shard logs appended and others not, and a
// whole-transaction skip would lose the missing keys.
type SkipFunc func(key string, txID uint64) bool

// Protocol is the seam between the shared runtime and a snapshot
// representation. Implementations are the per-protocol servers; every
// method is called by at most the documented goroutines. None of them
// sits between a commit decision and its reply: the runtime acknowledges
// the client as soon as the decision is durable, and Wren's client cache
// (not a wait for stability) keeps the session reading its own writes.
type Protocol interface {
	// AppendLocalPuts renders a locally committed transaction into engine
	// inserts appended to dst (returned like append). skip, when non-nil,
	// is the recovery/resync idempotence check.
	AppendLocalPuts(dst []store.KV, t *txlog.CommittedTx, skip SkipFunc) []store.KV
	// AppendRemotePuts renders one replicated transaction from srcDC.
	AppendRemotePuts(dst []store.KV, srcDC uint8, t *wire.ReplTx, skip SkipFunc) []store.KV
	// ReplTxRecord renders a committed transaction's replication record
	// (Wren ships the scalar RST; Cure a dependency vector).
	ReplTxRecord(t *txlog.CommittedTx) wire.ReplTx
	// ApplyBound returns the apply upper bound when no prepare is pending,
	// pinning the clock so later prepares propose strictly above it.
	// Called with the runtime's writer mutex held.
	ApplyBound() hlc.Timestamp
	// ObserveCommitTS lets the protocol's clock absorb a commit timestamp
	// this partition just heard of — an incoming CommitTx, this
	// coordinator's own decision, the last transaction of a replicated-in
	// batch (Wren and H-Cure; plain Cure's physical clock must not jump).
	// The runtime asks for an apply pass right after, so the version clock
	// covers the timestamp instead of waiting out skew or a tick.
	ObserveCommitTS(ct hlc.Timestamp)
	// AfterInstall runs after the runtime advanced the version vector
	// (apply pass, replication, heartbeat), possibly on several goroutines
	// at once: Cure releases parked readers whose snapshot is now
	// installed; Wren folds its own BiST contribution.
	AfterInstall()
	// StampStable returns the stabilization metadata for an outgoing
	// intra-DC transaction message, ObserveStable folds a peer partition's
	// (see wire.Stab). Both run on delivery goroutines, the read path's
	// included: they MUST NOT lock, allocate or wait. Cure and H-Cure stamp
	// and fold nothing — their vector gossip stays ticked.
	StampStable() wire.Stab
	ObserveStable(fromPartition int, st wire.Stab)
	// GossipTick emits one round of the protocol's stabilization exchange.
	GossipTick()
	// BeginSnapshot assigns the snapshot of a transaction m starts, after
	// folding in what m carries of the client's session (Wren's stable
	// times, Cure's dependency vector). Called with snapMu held shared.
	BeginSnapshot(m *wire.StartTxReq) Snapshot
	// ExpiredSnapshot stands in for the snapshot of a transaction that
	// commits after its context expired.
	ExpiredSnapshot() Snapshot
	// CommitFloor is ht, the time every cohort proposes above, for a
	// commit under snap by a client whose last write was at hwt.
	CommitFloor(snap Snapshot, hwt hlc.Timestamp) hlc.Timestamp
	// SnapshotFloor is the oldest version time an open snapshot may still
	// read; StableFloor is the floor of the snapshot the next StartTx
	// would assign (called with snapMu held exclusively). GC keeps what
	// the minimum of both needs.
	SnapshotFloor(snap Snapshot) hlc.Timestamp
	StableFloor() hlc.Timestamp
	// ReadOwnSlice serves the keys of a transactional read this coordinator
	// owns in place, appending them to dst, and reports whether it did. A
	// protocol whose own slice may have to wait (Cure) answers false, and
	// the keys go out as a SliceReq to this partition like any other's.
	ReadOwnSlice(keys []string, snap Snapshot, dst []wire.Item) ([]wire.Item, bool)
	// OnStop runs inside the shutdown sequence before the stop channel
	// closes: Cure flushes parked readers (with courtesy replies unless
	// kill) so clients are not left hanging.
	OnStop(kill bool)
	// HandleMessage handles the messages that read or prepare under a
	// snapshot, and the stabilization broadcast: SliceReq, ScanReq,
	// PrepareReq, StableBroadcast.
	HandleMessage(from transport.NodeID, m wire.Message)
}

// Runtime is the shared replica core under one partition server, which
// embeds it: the runtime owns the server's accessors, the coordinator, the
// writer state, the durable lifecycle and every background loop; the
// protocol owns its snapshot state and the slice read.
//
// The state is split so the read path never acquires the runtime's writer
// mutex: the version vector is an entrywise-monotone atomic, transaction
// contexts and per-request bookkeeping live in striped maps, and mu guards
// only writer state (the pending/commit lists and GC aggregation).
type Runtime struct {
	cfg   Config
	proto Protocol
	id    transport.NodeID

	// reg is the server's one metrics registry (see package obs): the
	// runtime creates it, registers its own counters and attaches the
	// engine and the transaction log, and the protocol registers its own.
	reg                                                        *obs.Registry
	txCommitted, replTxApplied, gcRemoved, gcKeysDropped, shed *obs.Counter
	txStarted, slicesServed, ctxExpired                        *obs.Counter

	// Clock is the server's hybrid logical clock. It is exported for the
	// protocol's snapshot assignment; mutating calls that must be atomic
	// with the pending list (TickPast) happen inside Runtime.Prepare.
	Clock *hlc.Clock

	st store.Engine
	// tl is the transaction-lifecycle log: commit records ahead of
	// acknowledgements, the per-DC replication cursor, and restart
	// recovery state (on the memory backend, without a file).
	tl *txlog.Log

	// seqLimit is the durably reserved transaction-sequence ceiling;
	// seqMu serializes block refills (see seqBlockSize).
	seqLimit atomic.Uint64
	seqMu    sync.Mutex

	// VV is the version vector: VV[m] is the locally installed snapshot,
	// VV[i] the latest commit timestamp received from DC i. Entrywise
	// monotone, so protocols load it lock-free on the read path.
	VV hlc.AtomicVector

	// snapMu makes snapshot assignment atomic with respect to GC's
	// oldest-snapshot computation. handleStartTx holds it SHARED around
	// (assign snapshot → store context) — concurrent starts never
	// serialize on it — while the GC tick takes it exclusively for the
	// protocol's StableFloor: the barrier guarantees every context
	// predating the GC floor is visible to the sweep, so GC can never prune
	// a version a just-started transaction's snapshot still needs.
	snapMu sync.RWMutex

	// txCtx holds the open transaction contexts, keyed by TxID.
	txCtx *stripemap.Map[txContext]
	// pendingSlice tracks in-flight slice-read fan-ins by request id.
	pendingSlice *stripemap.Map[*fanin.TxRead]
	// fanPool holds the read fan-out's key-grouping scratch.
	fanPool sync.Pool

	// admission counts in-flight admission-gated client requests per
	// connection (MaxInflightPerConn). admMu only guards the map shape;
	// the counters are atomic, so the steady state per request is one
	// read-locked lookup plus one atomic add.
	admMu     sync.RWMutex
	admission map[transport.NodeID]*atomic.Int64

	// unreleased (under relMu) is what the next engine barrier covers: the
	// ids of transactions written to the engine since the last one, and
	// per source DC the highest replicated batch end still owed a
	// ReplicateAck. Only Runtime.release lets a log forget a record.
	relMu      sync.Mutex
	unreleased []uint64
	owedAcks   []hlc.Timestamp

	// applyMu serializes the apply pass end to end (see ApplyTick for the
	// rules). Passes MUST serialize: pass A takes committed transactions up
	// to its bound and is preempted before writing them to the engine; pass
	// B, finding the commit list empty, computes a LARGER bound and
	// publishes it while A's writes are still in flight — readers whose
	// snapshot the new bound "covers" are served without those versions. mu
	// cannot serve this purpose: the pass must release it around the engine
	// write, which is exactly the window that must stay ordered.
	applyMu sync.Mutex

	// kick wakes the apply goroutine outside its ΔR tick: it is how an
	// event — a commit, a decision, a replicated-in batch, news of a commit
	// on a read — gets a pass run and its batches shipped without the
	// delivery handler that saw it waiting for either. kicked keeps that to
	// one atomic load per message while a wake-up is already pending, and
	// whatever piled up until the goroutine runs goes into one pass.
	kick   chan struct{}
	kicked atomic.Bool

	// outbox (under outMu) holds the Replicate batches passes built and
	// nobody shipped yet, in commit-timestamp order.
	outMu  sync.Mutex
	outbox []*wire.Replicate

	mu             sync.Mutex
	prepared       map[uint64]*txlog.PreparedTx
	recovered      map[uint64]*recoveredPrepare // txlog prepares awaiting a re-driven outcome
	committed      []*txlog.CommittedTx
	peerOldest     []hlc.Timestamp // per-partition gossiped oldest active snapshots
	pendingPrepare map[uint64]*prepareCall

	// decisions / decisionsPrev (guarded by mu) record the recent outcomes
	// of this coordinator's write commits by transaction id: the commit
	// timestamp, or zero for aborted-or-fenced. They make the commit path
	// idempotent against duplicated or resent CommitReqs — a duplicate of
	// a decided transaction is answered with the same outcome instead of
	// re-running the 2PC at a new timestamp — and back the client-facing
	// termination probe for decisions the log no longer retains. Bounded
	// by generational rotation; see recordDecisionLocked.
	decisions     map[uint64]hlc.Timestamp
	decisionsPrev map[uint64]hlc.Timestamp

	// replWM[dc] is the highest replicated commit timestamp applied from
	// that DC's sender: batches at or below it were already installed, so
	// a duplicated frame (chaos duplication, a TCP resend across a
	// reconnect) deduplicates instead of double-applying.
	replWM hlc.AtomicVector

	// streams[dc] is the replication stream to that DC (see the package
	// comment); this DC's entry is unused.
	streams []stream

	reqSeq atomic.Uint64
	txSeq  atomic.Uint64

	// nextRepair paces maybeRepair; touched only by the lifecycle loop.
	nextRepair time.Time

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	wg        sync.WaitGroup
	reqWG     sync.WaitGroup

	// drainMu orders goAsync's draining check + reqWG.Add against Stop's
	// draining=true + reqWG.Wait: without it, an Add could race Wait at
	// counter zero (a documented WaitGroup misuse that panics). Only the
	// commit path touches it; reads never use goAsync at all.
	drainMu  sync.Mutex
	draining bool // guarded by drainMu; set during Stop
}

// New opens the storage engine and transaction log, replays recovery
// state through the protocol's put renderer, and returns a runtime ready
// for Start. name is the owning protocol package ("core", "cure"); with the
// server's DC and partition it names the registry's events. cfg must
// already be filled and validated (the protocol constructor does both, so
// it can keep the filled copy). proto may rely only on its configuration
// during New — the runtime pointer is handed to it by its own constructor
// afterwards.
func New(name string, cfg Config, proto Protocol) (*Runtime, error) {
	// Engine logs are a recovery accelerator; the txlog is the WAL. An
	// engine never syncs on its own: Runtime.release runs its Sync as a
	// barrier before any log forgets a record.
	eng, err := backend.Open(backend.Options{Backend: cfg.StoreBackend, DataDir: cfg.EngineDir()})
	if err != nil {
		return nil, fmt.Errorf("%s: open store: %w", name, err)
	}
	// The transaction log lives beside the engine's files, inside the
	// directory the engine just claimed — covered by the same exclusive
	// lock and engine-type marker. The memory engine keeps nothing across a
	// restart, so its log has no file either, whatever DataDir says.
	tlDir := ""
	if cfg.StoreBackend != "" && cfg.StoreBackend != backend.Memory {
		tlDir = filepath.Join(cfg.EngineDir(), "txlog")
	}
	tl, err := txlog.Open(txlog.Options{Dir: tlDir, NumDCs: cfg.NumDCs, SelfDC: cfg.DC, Fsync: cfg.FsyncPolicy})
	if err != nil {
		_ = eng.Close()
		return nil, fmt.Errorf("%s: open txlog: %w", name, err)
	}
	reg := obs.New(fmt.Sprintf("%s dc%d/p%d", name, cfg.DC, cfg.Partition))
	tl.Observe(reg)
	if o, ok := eng.(interface{ Observe(*obs.Registry) }); ok {
		o.Observe(reg)
	}
	r := &Runtime{
		cfg:            cfg,
		proto:          proto,
		reg:            reg,
		txCommitted:    reg.Counter("tx.committed"),
		replTxApplied:  reg.Counter("repl.tx_applied"),
		gcRemoved:      reg.Counter("gc.removed"),
		gcKeysDropped:  reg.Counter("gc.keys_dropped"),
		shed:           reg.Counter("admission.shed"),
		txStarted:      reg.Counter("tx.started"),
		slicesServed:   reg.Counter("read.slices_served"),
		ctxExpired:     reg.Counter("ctx.expired"),
		id:             transport.ServerID(cfg.DC, cfg.Partition),
		Clock:          hlc.NewClock(cfg.ClockSource),
		st:             eng,
		tl:             tl,
		VV:             hlc.NewAtomicVector(cfg.NumDCs),
		prepared:       make(map[uint64]*txlog.PreparedTx),
		recovered:      make(map[uint64]*recoveredPrepare),
		peerOldest:     make([]hlc.Timestamp, cfg.NumPartitions),
		txCtx:          stripemap.New[txContext](0),
		pendingSlice:   stripemap.New[*fanin.TxRead](0),
		admission:      make(map[transport.NodeID]*atomic.Int64),
		pendingPrepare: make(map[uint64]*prepareCall),
		decisions:      make(map[uint64]hlc.Timestamp),
		replWM:         hlc.NewAtomicVector(cfg.NumDCs),
		streams:        make([]stream, cfg.NumDCs),
		owedAcks:       make([]hlc.Timestamp, cfg.NumDCs),
		kick:           make(chan struct{}, 1),
		stop:           make(chan struct{}),
	}
	r.fanPool.New = func() any { return &fanin.Fanout{} }
	// Open transaction contexts; each pins the version-GC floor.
	reg.Func("ctx.open", func() uint64 { return uint64(r.txCtx.Len()) })
	// Recovery order: the engine replayed its own logs in Open above; now
	// the txlog's committed-but-unapplied transactions go into the engine
	// BEFORE the server serves anything, so a kill between the client ack
	// and the apply pass loses nothing.
	r.recoverFromTxLog()
	// Fresh transaction ids must clear every id of the previous lives: the
	// log keeps old ids live across restarts (resync dedupe, re-driven
	// outcomes, remote cohorts' retained prepares), so a colliding new id
	// would match an unrelated old transaction. Seed above the durably
	// reserved watermark and reserve the first block.
	floor := tl.NextSeqFloor()
	r.txSeq.Store(floor)
	tl.ReserveSeqs(floor + seqBlockSize)
	r.seqLimit.Store(floor + seqBlockSize)
	// Every stream starts with a rewind: its first batch re-sends what the
	// log holds above the peer's cursor.
	for dc := range r.streams {
		r.streams[dc].rewind.Store(dc != cfg.DC)
	}
	return r, nil
}

// ID returns the server's node id.
func (r *Runtime) ID() transport.NodeID { return r.id }

// Store exposes the storage engine (read-only use in tests).
func (r *Runtime) Store() store.Engine { return r.st }

// TxLog exposes the transaction log (read-only use in tests).
func (r *Runtime) TxLog() *txlog.Log { return r.tl }

// Obs returns the server's metrics registry: the runtime's, the
// protocol's, the engine's and the transaction log's counters and gauges.
func (r *Runtime) Obs() *obs.Registry { return r.reg }

// VersionVector returns a copy of the server's version vector.
func (r *Runtime) VersionVector() []hlc.Timestamp { return r.VV.Snapshot(nil) }

// LocalVersionClock returns vv[m], the local snapshot installed by this
// partition.
func (r *Runtime) LocalVersionClock() hlc.Timestamp { return r.VV.Load(r.cfg.DC) }

// CommitQueueLen reports the current commit-list length (tests only).
func (r *Runtime) CommitQueueLen() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.committed)
}

// Start registers the runtime as the server's transport handler and
// launches the apply, stabilization (ΔG), garbage-collection and lifecycle
// loops.
func (r *Runtime) Start() {
	r.startOnce.Do(func() {
		r.cfg.Network.Register(r.id, r)
		r.wg.Add(1)
		go r.applyLoop()
		r.every(r.cfg.GossipInterval, r.proto.GossipTick)
		if r.cfg.GCInterval > 0 {
			r.every(r.cfg.GCInterval, r.gcTick)
		}
		// A re-drive retrying toward one dead cohort must not block the
		// other loops.
		r.wg.Add(1)
		go r.redriveRecovered()
		r.every(lifecycleInterval, r.lifecycleTick)
	})
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

// HandleMessage implements transport.Handler: the runtime dispatches the
// protocol-independent messages itself — the client's StartTx, read and
// commit among them — and forwards the rest to the protocol. Handlers run
// on the per-link FIFO delivery goroutines, which reads share, so they
// MUST NOT wait — not for the disk, not for a SendBounded backoff, not for
// a running apply pass: they append to the transaction log and write to
// the engine (neither syncs on this path), they ask the apply goroutine
// for a pass instead of running one (KickApply), and every wait for an
// fsync happens on a goAsync goroutine, as a txlog lazy waiter, or in the
// release barrier. (The exception: a Cure slice read that has to park runs
// the pass itself first, as it always has.)
func (r *Runtime) HandleMessage(from transport.NodeID, m wire.Message) {
	switch msg := m.(type) {
	case *wire.StartTxReq:
		r.handleStartTx(from, msg)
	case *wire.TxReadReq:
		r.handleTxRead(from, msg)
	case *wire.CommitReq:
		r.handleCommitReq(from, msg)
	case *wire.SliceResp:
		r.handleSliceResp(from, msg)
	case *wire.PrepareResp:
		r.handlePrepareResp(from, msg)
	case *wire.CommitTx:
		r.handleCommitTx(from, msg)
	case *wire.CommitAck:
		r.handleCommitAck(msg)
	case *wire.Replicate:
		r.handleReplicate(msg)
	case *wire.ReplicateAck:
		r.handleReplicateAck(msg)
	case *wire.Heartbeat:
		r.handleHeartbeat(msg)
	case *wire.GCBroadcast:
		r.handleGCBroadcast(msg)
	case *wire.HealthReq:
		r.handleHealthReq(from, msg)
	case *wire.TxStatusReq:
		r.handleTxStatusReq(from, msg)
	case *wire.TxStatusResp:
		r.handleTxStatusResp(from, msg)
	default:
		r.proto.HandleMessage(from, m)
	}
}

// ObserveStable folds the stabilization metadata a message from `from`
// carried, if `from` is a partition server of this DC; the protocol checks
// the partition index. Safe on the read path (see Protocol.ObserveStable).
func (r *Runtime) ObserveStable(from transport.NodeID, st wire.Stab) {
	if from.DC == r.cfg.DC {
		r.proto.ObserveStable(from.Node, st)
	}
}
