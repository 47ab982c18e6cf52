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
//   - restart recovery: replay of committed-but-unapplied transactions,
//     per-peer resend of the unreplicated committed tail, and the pinned
//     replication cursors that make the resend safe;
//   - durable transaction-id block reservation;
//   - the install-and-publish pass (Algorithm 4's apply step), run by the
//     apply goroutine when an event that makes something newly stable wakes
//     it and on its ΔR tick, the idle fallback; the gossip (ΔG), GC and
//     lifecycle timer loops; and the resync gating that keeps ordinary
//     replication from overtaking a restart resync;
//   - health-driven read-only admission, including the degraded-mode
//     probation exit that re-verifies and readmits a transiently broken
//     transaction log.
//
// A protocol plugs in through the Protocol interface: how a committed
// transaction's writes render into engine versions and replication
// records, how the apply upper bound follows the clock, and the handlers
// for the snapshot-carrying messages (StartTx, reads, commit entry,
// stability gossip). The seam is deliberately small so a third snapshot
// representation — e.g. the per-(partition, DC) cursors partial
// replication needs — slots in without touching the lifecycle machinery.
package replica

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wren/internal/fanin"
	"wren/internal/hlc"
	"wren/internal/sharding"
	"wren/internal/stats"
	"wren/internal/store"
	"wren/internal/store/backend"
	"wren/internal/store/wal"
	"wren/internal/stripemap"
	"wren/internal/transport"
	"wren/internal/txlog"
	"wren/internal/wire"
)

// Default protocol timer intervals. The paper runs its stabilization
// protocols every 5 milliseconds (§V-A); here ΔR and ΔG are idle-fallback
// periods — what a partition that hears nothing falls back to — because
// commits and replicated batches ask for the apply pass themselves and BiST's
// scalars ride the transaction's own messages.
const (
	DefaultApplyInterval  = 5 * time.Millisecond
	DefaultGossipInterval = 5 * time.Millisecond
	DefaultGCInterval     = 500 * time.Millisecond
	DefaultTxContextTTL   = 30 * time.Second
	// DefaultMaxInflightPerConn is the per-connection admission cap on
	// outstanding gated client requests (see Config.MaxInflightPerConn).
	// Sized for pooled connections carrying whole session fleets: far
	// above any single session's needs, low enough that one runaway
	// connection cannot exhaust the server's fan-in and 2PC state.
	DefaultMaxInflightPerConn = 1024

	// DefaultRepairInterval paces the degraded-mode probation exit: how
	// often a server whose transaction log is degraded (but whose storage
	// engine is healthy) attempts a repair-and-readmit.
	DefaultRepairInterval = 5 * time.Second
)

// recoveryGrace is how long a prepare recovered from the transaction log
// waits for its re-driven 2PC outcome after a restart before the cohort
// starts probing the coordinator with TxStatusReq (and between re-probes).
// A recovered prepare is only ever aborted on the coordinator's explicit
// "not committed" answer — a timeout alone cannot distinguish a doomed
// prepare from a durably-decided transaction whose coordinator is slow to
// come back. Recovered prepares do NOT hold back the apply upper bound
// while they wait.
const recoveryGrace = 15 * time.Second

// redriveAfter is how old an unresolved commit decision must be before
// the coordinator re-sends its CommitTx to the cohorts that have not
// acknowledged a durable outcome — recovering from a CommitTx or ack lost
// to a cohort crash without waiting for this coordinator to restart.
const redriveAfter = 5 * time.Second

// resendBatchSize bounds how many recovered transactions one resync
// Replicate message carries.
const resendBatchSize = 128

// lifecycleInterval is the period of the transaction-lifecycle maintenance
// loop (status probes for recovered prepares, re-drives of unresolved
// decisions, degraded-mode repair probes). It runs on its own timer, NOT
// the GC loop's: GC is an optional subsystem (GCInterval <= 0 disables it)
// and 2PC termination must not be.
const lifecycleInterval = time.Second

// decisionGenSize bounds the in-memory commit-decision dedupe map: when
// the current generation fills, it becomes the previous generation and a
// fresh one starts, so lookups cover at least the last decisionGenSize
// outcomes. Sized generously — a client termination probe fenced against
// an outcome that already rotated out of BOTH generations would falsely
// abort, so the window must comfortably exceed the commits a coordinator
// can decide within a client's probe horizon.
const decisionGenSize = 1 << 16

// liveResyncStallTicks is how many lifecycle ticks a peer DC's
// unreplicated tail may sit with an unchanged head before the tail is
// re-sent as resync batches (lost acknowledgements or a recovered link).
const liveResyncStallTicks = 3

// seqBlockSize is how many transaction sequence numbers a server reserves
// from its transaction log at a time. Ids must be reserved durably BEFORE
// use — an id handed out at StartTx can reach a cohort's durable log even
// if this server crashes before logging anything itself — and block
// reservation amortizes that to one log record (one fsync under
// fsync=always) per million transactions. The lifecycle tick reserves the
// next block once half of the current one is used, so StartTx — a handler
// on a connection's reader goroutine — never waits for that fsync unless
// a server hands out half a million ids within one tick.
const seqBlockSize = 1 << 20

// Config configures one partition server p_n^m. It is the only declaration
// of a server's configuration: core.ServerConfig (Wren) and
// cure.ServerConfig (Cure, H-Cure) are aliases of it, and each protocol
// refuses the switches documented as the other's.
type Config struct {
	// DC is the server's data center index m (0-based).
	DC int
	// Partition is the server's partition index n (0-based).
	Partition int
	// NumDCs is the number of replication sites M.
	NumDCs int
	// NumPartitions is the number of partitions per DC, N.
	NumPartitions int
	// Network delivers messages between nodes.
	Network transport.Network
	// ClockSource supplies physical time; distinct servers get distinct,
	// possibly skewed sources. Nil means the system clock.
	ClockSource hlc.Source
	// ApplyInterval is ΔR, the idle fallback period of the apply pass
	// (Algorithm 4): commits and replicated batches ask for the pass
	// themselves, the timer covers a partition that hears nothing and paces
	// its heartbeats. Zero selects DefaultApplyInterval.
	ApplyInterval time.Duration
	// GossipInterval is ΔG, the idle fallback period of stabilization.
	// Wren's two BiST scalars ride every intra-DC transaction message, so
	// the timed broadcast covers partitions that exchange none; Cure's
	// M-entry vector rides no transaction message and runs only on this
	// timer. Zero selects DefaultGossipInterval.
	GossipInterval time.Duration
	// GCInterval is how often version-chain garbage collection runs.
	// Zero selects DefaultGCInterval; negative disables GC.
	GCInterval time.Duration
	// TxContextTTL bounds how long an inactive transaction context is kept
	// before being expired (a backstop for abandoned sessions); expiry runs
	// on the GC tick. Zero selects DefaultTxContextTTL.
	TxContextTTL time.Duration
	// RepairInterval paces the degraded-mode probation exit: how often a
	// server whose transaction log recorded a write-path failure (but whose
	// storage engine is healthy) attempts a full repair-and-readmit (see
	// Runtime.maybeRepair). Zero selects DefaultRepairInterval; negative
	// disables automatic repair, leaving a degraded server read-only until
	// restart.
	RepairInterval time.Duration
	// StoreBackend selects the storage engine: backend.Memory (the ""
	// default) keeps versions only in memory; backend.WAL adds per-shard
	// append-only logs that are replayed on restart; backend.SST is the
	// memtable+sorted-run engine (WAL over the active memtable only,
	// immutable runs serving snapshot reads lock-free, merge compaction).
	// Every backend opens store.DefaultShards lock stripes.
	StoreBackend string
	// DataDir is the root directory durable backends write under. The
	// server uses DataDir/dc<m>-p<n>, so servers of one deployment can
	// share a root. Required when StoreBackend is backend.WAL or
	// backend.SST.
	DataDir string
	// FsyncPolicy is the transaction log's sync policy: "always" (a record
	// is stable before the acknowledgement it precedes leaves the server),
	// "interval" (the "" default: a 10ms timer syncs it) or "never". A
	// durable backend always runs behind the transaction-lifecycle log, the
	// one fsync-before-ack point: PREPARE and COMMIT records are written
	// before the corresponding acknowledgement — the durability unit is
	// the ACKNOWLEDGED transaction — and a persisted per-DC replication
	// cursor lets a restarted server re-send the unreplicated tail. The
	// engine's own logs never sync on this policy (see New). Ignored by the
	// memory backend, whose transaction log keeps the lifecycle in memory
	// and has no file.
	FsyncPolicy string
	// MaxInflightPerConn caps the admission-gated client requests
	// (transactional reads and write commits) outstanding per client
	// connection. Beyond the cap the request is shed with a BusyResp —
	// typed backpressure the client retry policies absorb with a delayed
	// resend — instead of queueing unbounded fan-in and 2PC state for one
	// connection. Zero selects DefaultMaxInflightPerConn; negative
	// disables the gate.
	MaxInflightPerConn int

	// BlockingCommit (Wren only) enables an ablation of CANToR: instead of
	// relying on the client-side cache, the coordinator delays the commit
	// reply until the commit timestamp is covered by the local stable
	// snapshot — the "simple solution" the paper rejects for its high
	// commit latency (§III-B). Off in the real protocol.
	BlockingCommit bool
	// GossipTree (Wren only) organizes the BiST exchange as an aggregation
	// tree rooted at partition 0 (paper §IV-B) instead of all-to-all
	// broadcast: 2(N−1) messages per round instead of N(N−1), at the cost
	// of one extra hop of staleness.
	GossipTree bool
	// UseHLC (Cure only) selects H-Cure: hybrid logical clocks let a
	// partition's clock jump forward on message receipt, removing the
	// clock-skew component of read blocking. False selects plain Cure
	// (physical clocks). Wren always runs on hybrid logical clocks.
	UseHLC bool
}

// FillDefaults resolves zero values to the package defaults.
func (c *Config) FillDefaults() {
	if c.ClockSource == nil {
		c.ClockSource = hlc.SystemSource{}
	}
	if c.ApplyInterval == 0 {
		c.ApplyInterval = DefaultApplyInterval
	}
	if c.GossipInterval == 0 {
		c.GossipInterval = DefaultGossipInterval
	}
	if c.GCInterval == 0 {
		c.GCInterval = DefaultGCInterval
	}
	if c.TxContextTTL == 0 {
		c.TxContextTTL = DefaultTxContextTTL
	}
	if c.RepairInterval == 0 {
		c.RepairInterval = DefaultRepairInterval
	}
	if c.MaxInflightPerConn == 0 {
		c.MaxInflightPerConn = DefaultMaxInflightPerConn
	}
}

// Validate checks the topology and storage configuration, prefixing
// errors with name, the owning protocol package ("core", "cure").
func (c *Config) Validate(name string) error {
	if c.NumDCs <= 0 || c.NumPartitions <= 0 {
		return fmt.Errorf("%s: invalid topology %dx%d", name, c.NumDCs, c.NumPartitions)
	}
	if c.DC < 0 || c.DC >= c.NumDCs {
		return fmt.Errorf("%s: DC %d out of range [0,%d)", name, c.DC, c.NumDCs)
	}
	if c.Partition < 0 || c.Partition >= c.NumPartitions {
		return fmt.Errorf("%s: partition %d out of range [0,%d)", name, c.Partition, c.NumPartitions)
	}
	if c.Network == nil {
		return fmt.Errorf("%s: network is required", name)
	}
	if err := backend.Validate(c.StoreBackend, c.DataDir, c.FsyncPolicy); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// EngineDir is the per-server subdirectory of DataDir a durable backend
// writes to, so all servers of a deployment can share one root.
func (c *Config) EngineDir() string {
	if c.DataDir == "" {
		return ""
	}
	return filepath.Join(c.DataDir, fmt.Sprintf("dc%d-p%d", c.DC, c.Partition))
}

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
// method is called by at most the documented goroutines.
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
	// StampStable fills the stabilization metadata of an outgoing intra-DC
	// transaction message, ObserveStable folds a peer partition's (see
	// wire.Stab). Both run on delivery goroutines, the read path's
	// included: they MUST NOT lock, allocate or wait. Cure and H-Cure stamp
	// and fold nothing — their vector gossip stays ticked.
	StampStable(st *wire.Stab)
	ObserveStable(fromPartition int, st wire.Stab)
	// GossipTick emits one round of the protocol's stabilization exchange.
	GossipTick()
	// OldestActiveSnapshot returns the oldest snapshot any live transaction
	// context still needs (expiring abandoned contexts as a side effect) —
	// the protocol half of the GC tick.
	OldestActiveSnapshot(now time.Time) hlc.Timestamp
	// BeforeCommitReply runs between the CommitTx fanout and the client
	// acknowledgement; returning false abandons the reply (stopping).
	// Wren's BlockingCommit ablation waits for ct to become stable here.
	BeforeCommitReply(ct hlc.Timestamp) bool
	// OnStop runs inside the shutdown sequence before the stop channel
	// closes: Cure flushes parked readers (with courtesy replies unless
	// kill) so clients are not left hanging.
	OnStop(kill bool)
	// HandleMessage handles the snapshot-carrying messages the runtime
	// does not: StartTxReq, TxReadReq, CommitReq, SliceReq, PrepareReq,
	// StableBroadcast.
	HandleMessage(from transport.NodeID, m wire.Message)
}

// Counters are the runtime-maintained metrics, pointing into the owning
// server's Metrics struct so the public Metrics() API is unchanged.
type Counters struct {
	TxCommitted   *stats.Counter
	ReplTxApplied *stats.Counter
	GCRemoved     *stats.Counter
	GCKeysDropped *stats.Counter
}

// recoveredPrepare is a prepare replayed from the transaction log after a
// restart: its 2PC outcome is unknown until a coordinator re-drives it or
// a TxStatusResp settles it. It is kept out of the pending list so it
// cannot hold the apply upper bound — and therefore the stable snapshot —
// back while it waits; nextProbe paces the status queries.
type recoveredPrepare struct {
	tx        *txlog.PreparedTx
	nextProbe time.Time
}

// prepareVote is one cohort's answer in the 2PC: a proposed commit
// timestamp, or a refusal (non-empty err) from a cohort whose durability
// is degraded.
type prepareVote struct {
	pt  hlc.Timestamp
	err string
}

// prepareCall collects PrepareResp messages for one committing transaction.
// seen (guarded by Runtime.mu) deduplicates votes by request id: a
// duplicated or resent PrepareResp must not count twice, or the collection
// would finish before every real cohort answered.
type prepareCall struct {
	ch   chan prepareVote
	seen map[uint64]struct{}
}

// Runtime is the shared replica core under one partition server. The
// protocol server owns the public API and the read path; the runtime owns
// the writer state, the durable lifecycle and every background loop.
//
// The state is split so the protocol's read path never acquires the
// runtime's writer mutex: the version vector is an entrywise-monotone
// atomic, per-request bookkeeping lives in striped maps, and mu guards
// only writer state (the pending/commit lists and GC aggregation).
type Runtime struct {
	// name tags errors and shutdown diagnostics with the owning protocol
	// package ("core", "cure").
	name  string
	cfg   Config
	proto Protocol
	ctr   Counters
	id    transport.NodeID

	// Clock is the server's hybrid logical clock. It is exported for the
	// protocol's snapshot assignment; mutating calls that must be atomic
	// with the pending list (TickPast) happen inside Runtime.Prepare.
	Clock *hlc.Clock

	st store.Engine
	// tl is the transaction-lifecycle log: commit records ahead of
	// acknowledgements, the per-DC replication cursor, and restart
	// recovery state (on the memory backend, without a file).
	tl *txlog.Log

	// resendTails[dc] is the unreplicated committed tail snapshotted at
	// construction time — BEFORE any new commit or acknowledgement can
	// race the snapshot — for resendTailTo to replay; the txlog's cursor
	// stays pinned below each tail until its resync is confirmed.
	resendTails [][]*txlog.CommittedTx
	// resyncTailSent[dc] flips once resendTailTo has enqueued dc's tail;
	// resyncDone[dc] (written only by ship) gates ordinary replication to
	// dc: until the tail is on the FIFO link, no new batch or heartbeat may
	// overtake it — the peer's version vector would advance past
	// transactions it has not received, a transient causal hole. The
	// transition ships a dedupe-safe catch-up of everything still
	// unconfirmed, then normal replication resumes.
	resyncTailSent []atomic.Bool
	resyncDone     []atomic.Bool

	// seqLimit is the durably reserved transaction-sequence ceiling;
	// seqMu serializes block refills (see seqBlockSize).
	seqLimit atomic.Uint64
	seqMu    sync.Mutex

	// VV is the version vector: VV[m] is the locally installed snapshot,
	// VV[i] the latest commit timestamp received from DC i. Entrywise
	// monotone, so protocols load it lock-free on the read path.
	VV hlc.AtomicVector

	// SnapMu makes the protocol's snapshot assignment atomic with respect
	// to GC's oldest-snapshot computation. StartTx handlers hold it SHARED
	// around (load stable snapshot → store context) — concurrent starts
	// never serialize on it — while the GC tick takes it exclusively for
	// one load inside Protocol.OldestActiveSnapshot: the barrier
	// guarantees every context predating the GC floor is visible to the
	// sweep, so GC can never prune a version a just-started transaction's
	// snapshot still needs.
	SnapMu sync.RWMutex

	// pendingSlice tracks in-flight slice-read fan-ins by request id.
	pendingSlice *stripemap.Map[*fanin.TxRead]

	// admission counts in-flight admission-gated client requests per
	// connection (MaxInflightPerConn). admMu only guards the map shape;
	// the counters are atomic, so the steady state per request is one
	// read-locked lookup plus one atomic add.
	admMu     sync.RWMutex
	admission map[transport.NodeID]*atomic.Int64
	shedCount atomic.Uint64

	// unreleased (under relMu) is what the next engine barrier covers: the
	// ids of transactions written to the engine since the last one, and
	// per source DC the highest replicated batch end still owed a
	// ReplicateAck ([1] for resync batches, whose acks lift the sender's
	// cursor pin). Only Runtime.release lets a log forget a record.
	relMu      sync.Mutex
	unreleased []uint64
	owedAcks   [][2]hlc.Timestamp

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

	// replPrev[dc] is the commit timestamp of the last transaction this
	// server shipped to that DC (ordinary or resync); it stamps each
	// ordinary Replicate batch's Prev so the receiver can detect a lost
	// predecessor and refuse to apply past the gap.
	replPrev hlc.AtomicVector

	// tailHead/tailStall track, per peer DC, how long the unreplicated
	// committed tail has sat with the same head (its acks lost or the peer
	// temporarily unreachable); after liveResyncStallTicks lifecycle ticks
	// the tail is re-sent as dedupe-safe resync batches. Touched only by
	// the lifecycle loop.
	tailHead  []hlc.Timestamp
	tailStall []int

	reqSeq atomic.Uint64
	txSeq  atomic.Uint64

	// nextRepair paces maybeRepair; touched only by the lifecycle loop.
	nextRepair time.Time

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	wg        sync.WaitGroup
	reqWG     sync.WaitGroup

	// drainMu orders GoAsync's draining check + reqWG.Add against Stop's
	// draining=true + reqWG.Wait: without it, an Add could race Wait at
	// counter zero (a documented WaitGroup misuse that panics). Only the
	// commit path touches it; reads never use GoAsync at all.
	drainMu  sync.Mutex
	draining bool // guarded by drainMu; set during Stop
}

// New opens the storage engine and transaction log, replays recovery
// state through the protocol's put renderer, and returns a runtime ready
// for Start. name is the owning protocol package ("core", "cure"). cfg must
// already be filled and validated (the protocol constructor does both, so
// it can keep the filled copy). proto may rely only on its configuration
// during New — the runtime pointer is handed to it by its own constructor
// afterwards.
func New(name string, cfg Config, proto Protocol, ctr Counters) (*Runtime, error) {
	// Engine logs are a recovery accelerator; the txlog is the WAL. A
	// durable engine always has the transaction log in front of it and
	// therefore never syncs on its own, whatever the policy (which the
	// transaction log honours): Runtime.release runs its Sync as a barrier
	// before any log forgets a record. (The memory engine has no log and
	// ignores the policy.)
	eng, err := backend.Open(backend.Options{
		Backend: cfg.StoreBackend,
		DataDir: cfg.EngineDir(),
		Fsync:   wal.FsyncNever,
	})
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
	r := &Runtime{
		name:           name,
		cfg:            cfg,
		proto:          proto,
		ctr:            ctr,
		id:             transport.ServerID(cfg.DC, cfg.Partition),
		Clock:          hlc.NewClock(cfg.ClockSource),
		st:             eng,
		tl:             tl,
		VV:             hlc.NewAtomicVector(cfg.NumDCs),
		prepared:       make(map[uint64]*txlog.PreparedTx),
		recovered:      make(map[uint64]*recoveredPrepare),
		peerOldest:     make([]hlc.Timestamp, cfg.NumPartitions),
		pendingSlice:   stripemap.New[*fanin.TxRead](0),
		admission:      make(map[transport.NodeID]*atomic.Int64),
		pendingPrepare: make(map[uint64]*prepareCall),
		decisions:      make(map[uint64]hlc.Timestamp),
		replWM:         hlc.NewAtomicVector(cfg.NumDCs),
		replPrev:       hlc.NewAtomicVector(cfg.NumDCs),
		tailHead:       make([]hlc.Timestamp, cfg.NumDCs),
		tailStall:      make([]int, cfg.NumDCs),
		owedAcks:       make([][2]hlc.Timestamp, cfg.NumDCs),
		kick:           make(chan struct{}, 1),
		stop:           make(chan struct{}),
	}
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
	// Snapshot each peer DC's unreplicated tail NOW, before the server
	// serves anything: once live traffic flows, a peer's acknowledgement of
	// a NEW batch could advance its cursor past the old tail before
	// resendTailTo reads it, silently dropping the very transactions the
	// cursor exists to recover. The cursor stays pinned at each tail's
	// high-water mark until the re-sent tail itself is acknowledged.
	r.resendTails = make([][]*txlog.CommittedTx, cfg.NumDCs)
	r.resyncTailSent = make([]atomic.Bool, cfg.NumDCs)
	r.resyncDone = make([]atomic.Bool, cfg.NumDCs)
	for dc := 0; dc < cfg.NumDCs; dc++ {
		if dc == cfg.DC {
			r.resyncDone[dc].Store(true)
			continue
		}
		tail := tl.UnreplicatedTail(dc)
		r.resyncDone[dc].Store(len(tail) == 0)
		if len(tail) > 0 {
			r.resendTails[dc] = tail
			tl.PinResync(dc, tail[len(tail)-1].CT)
		}
	}
	return r, nil
}

// ID returns the server's node id.
func (r *Runtime) ID() transport.NodeID { return r.id }

// Engine exposes the storage engine.
func (r *Runtime) Engine() store.Engine { return r.st }

// TxLog exposes the transaction log.
func (r *Runtime) TxLog() *txlog.Log { return r.tl }

// Healthy reports the first durability failure of the server's write path
// — storage engine or transaction log — or nil while both are intact. The
// runtime ACTS on this signal: a degraded server sheds into read-only
// admission (prepares and commits are refused with a typed error) until
// restart or a successful probation repair.
func (r *Runtime) Healthy() error {
	if err := r.st.Healthy(); err != nil {
		return err
	}
	return r.tl.Healthy()
}

// Stopping exposes the stop channel for protocol hooks that wait
// (BeforeCommitReply).
func (r *Runtime) Stopping() <-chan struct{} { return r.stop }

// NextReqID allocates a request id for an outgoing fan-out request.
func (r *Runtime) NextReqID() uint64 { return r.reqSeq.Add(1) }

// TrackRead registers an in-flight slice-read fan-in under reqID; the
// matching SliceResp resolves it, the GC tick sweeps it if abandoned.
func (r *Runtime) TrackRead(reqID uint64, fi *fanin.TxRead) {
	r.pendingSlice.Store(reqID, fi)
}

// CommitQueueLen reports the current commit-list length (tests only).
func (r *Runtime) CommitQueueLen() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.committed)
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

// recordDecisionLocked remembers a commit outcome (ct, or zero for
// aborted/fenced) for duplicate-CommitReq dedupe and client termination
// probes. Generational rotation bounds the memory: when the current map
// fills it becomes the previous generation, so at least the last
// decisionGenSize outcomes stay resolvable. Caller holds r.mu.
func (r *Runtime) recordDecisionLocked(txID uint64, ct hlc.Timestamp) {
	if len(r.decisions) >= decisionGenSize {
		r.decisionsPrev = r.decisions
		r.decisions = make(map[uint64]hlc.Timestamp, decisionGenSize)
	}
	r.decisions[txID] = ct
}

// lookupDecisionLocked resolves a recorded outcome. Caller holds r.mu.
func (r *Runtime) lookupDecisionLocked(txID uint64) (hlc.Timestamp, bool) {
	if ct, ok := r.decisions[txID]; ok {
		return ct, true
	}
	ct, ok := r.decisionsPrev[txID]
	return ct, ok
}

// TxApplied reports whether the storage engine already holds a version
// written by txID under key — the idempotence check recovery replay and
// resync application run before re-inserting a transaction's writes.
// Transaction ids embed the DC and partition, so a TxID match is exact.
func (r *Runtime) TxApplied(key string, txID uint64) bool {
	return r.st.ReadVisible(key, func(v *store.Version) bool { return v.TxID == txID }) != nil
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

// CoordinatorOf decodes the coordinator server embedded in a transaction
// id (see NewTxID: DC in the top byte, partition in the next two).
func CoordinatorOf(txID uint64) (dc, partition int) {
	return int(txID >> 56), int(uint16(txID >> 40))
}

// recoverFromTxLog replays the log's committed transactions into the
// storage engine (skipping the writes the engine already recovered
// itself) and stages outcome-less prepares for the re-driven CommitTx a
// restarted coordinator sends. Runs before the server is registered on
// the network.
func (r *Runtime) recoverFromTxLog() {
	committed := r.tl.Committed()
	for _, t := range committed {
		r.st.PutBatch(r.proto.AppendLocalPuts(nil, t, r.TxApplied))
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

// Start registers the runtime as the server's transport handler and
// launches the apply, stabilization (ΔG), garbage-collection and lifecycle
// loops.
func (r *Runtime) Start() {
	r.startOnce.Do(func() {
		r.cfg.Network.Register(r.id, r)
		r.wg.Add(1)
		go r.applyLoop()
		r.wg.Add(1)
		go r.gossipLoop()
		if r.cfg.GCInterval > 0 {
			r.wg.Add(1)
			go r.gcLoop()
		}
		// Recovery sends run per destination: a re-drive retrying toward
		// one dead cohort, or one unreachable peer DC, must not block the
		// resync tails — and with them ALL replication — to everyone else.
		r.wg.Add(1)
		go r.redriveRecovered()
		for dc, tail := range r.resendTails {
			if len(tail) > 0 {
				r.wg.Add(1)
				go r.resendTailTo(dc, tail)
			}
		}
		r.wg.Add(1)
		go r.lifecycleLoop()
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
		fmt.Fprintf(os.Stderr, "%s: dc%d/p%d store close: %v\n", r.name, r.cfg.DC, r.cfg.Partition, err)
	}
	if err := r.tl.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: dc%d/p%d txlog close: %v\n", r.name, r.cfg.DC, r.cfg.Partition, err)
	}
}

// flushCommitted force-applies every transaction still on the commit list
// to the storage engine, ignoring the apply upper bound. Only used during
// Stop: the server serves no more reads, and a durable engine must not
// close with acknowledged commits unapplied. The regular final ApplyTick
// usually drains the list already; this catches commit timestamps the
// local clock has not caught up to (for plain Cure in particular, whose
// bound follows the raw physical clock: under skew a timestamp assigned
// by a faster coordinator can sit above PhysicalNow() at shutdown).
//
// Replication is NOT retried here: a transaction flushed this way (or
// whose Replicate message was dropped by draining peers) persists locally
// without reaching the remote DCs in this life. Its record stays above
// every peer's replication cursor, so the next start re-sends it
// (resendTailTo).
func (r *Runtime) flushCommitted() {
	r.mu.Lock()
	apply := r.committed
	r.committed = nil
	r.mu.Unlock()
	if len(apply) == 0 {
		return
	}
	sortCommitted(apply)
	var puts []store.KV
	for _, t := range apply {
		puts = r.proto.AppendLocalPuts(puts, t, nil)
	}
	r.st.PutBatch(puts)
	r.noteApplied(apply)
}

// GoAsync runs fn on a tracked goroutine unless the server is draining.
// The commit path uses it for the 2PC response collection and for the
// waits on a transaction-log sync, which must not block a delivery link.
// (Reads do not need it: their fan-in is a completion counter, not a
// parked goroutine.)
func (r *Runtime) GoAsync(fn func()) {
	r.drainMu.Lock()
	if r.draining {
		r.drainMu.Unlock()
		return
	}
	r.reqWG.Add(1)
	r.drainMu.Unlock()
	go func() {
		defer r.reqWG.Done()
		fn()
	}()
}

// sortCommitted orders transactions by (commit timestamp, id) — the apply
// and flush order.
func sortCommitted(txs []*txlog.CommittedTx) {
	sort.Slice(txs, func(i, j int) bool {
		if txs[i].CT != txs[j].CT {
			return txs[i].CT < txs[j].CT
		}
		return txs[i].TxID < txs[j].TxID
	})
}

// HandleMessage implements transport.Handler: the runtime dispatches the
// protocol-independent messages itself and forwards the snapshot-carrying
// rest to the protocol. Handlers run on the per-link FIFO delivery
// goroutines, which reads share, so they MUST NOT wait — not for the disk,
// not for a SendBounded backoff, not for a running apply pass: they append
// to the transaction log and write to the engine (neither syncs on this
// path), they ask the apply goroutine for a pass instead of running one
// (KickApply), and every wait for an fsync happens on a GoAsync goroutine,
// as a txlog lazy waiter, or in the release barrier. (The exception: a
// Cure slice read that has to park runs the pass itself first, as it always
// has.)
func (r *Runtime) HandleMessage(from transport.NodeID, m wire.Message) {
	switch msg := m.(type) {
	case *wire.SliceResp:
		r.handleSliceResp(from, msg)
	case *wire.PrepareResp:
		r.handlePrepareResp(from, msg)
	case *wire.CommitTx:
		r.HandleCommitTx(from, msg)
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

// AdmitClient reserves an in-flight slot for one admission-gated client
// request (a transactional read or a write commit) from connection
// `from`. It returns false — the caller must then answer with Shed — when
// the connection already has MaxInflightPerConn requests outstanding. The
// gate is per connection: a pooled endpoint carrying a whole session
// fleet gets one budget, so it cannot queue unbounded fan-in and 2PC
// state while other connections starve.
func (r *Runtime) AdmitClient(from transport.NodeID) bool {
	limit := r.cfg.MaxInflightPerConn
	if limit <= 0 {
		return true
	}
	ctr := r.admissionCounter(from)
	if ctr.Add(1) > int64(limit) {
		ctr.Add(-1)
		return false
	}
	return true
}

// ReleaseClient returns an admitted request's slot. Called exactly once
// per successful AdmitClient: when the response is sent, or when a stale
// fan-in is swept.
func (r *Runtime) ReleaseClient(from transport.NodeID) {
	if r.cfg.MaxInflightPerConn <= 0 {
		return
	}
	r.admissionCounter(from).Add(-1)
}

// Shed answers a request refused by AdmitClient with the typed admission
// pushback. A BusyResp proves the request did not execute, so the client
// may resend it — even a CommitReq — after a backoff.
func (r *Runtime) Shed(from transport.NodeID, reqID uint64) {
	r.shedCount.Add(1)
	r.Send(from, &wire.BusyResp{ReqID: reqID})
}

// ShedCount returns how many client requests admission control refused.
func (r *Runtime) ShedCount() uint64 { return r.shedCount.Load() }

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

// ObserveStable folds the stabilization metadata a message from `from`
// carried, if `from` is a partition server of this DC; the protocol checks
// the partition index. Safe on the read path (see Protocol.ObserveStable).
func (r *Runtime) ObserveStable(from transport.NodeID, st wire.Stab) {
	if from.DC == r.cfg.DC {
		r.proto.ObserveStable(from.Node, st)
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
			r.ReleaseClient(to)
			r.Send(to, resp)
		}
	}
	wire.PutSliceResp(m)
}

// Commit runs the coordinator side of the two-phase commit (Algorithm 2
// lines 17–28). The protocol has already resolved the transaction's
// snapshot and supplies makePrepare, which renders a cohort's PrepareReq
// carrying that snapshot; the runtime fills ReqID, TxID and Writes.
func (r *Runtime) Commit(from transport.NodeID, m *wire.CommitReq, makePrepare func() *wire.PrepareReq) {
	if len(m.Writes) == 0 {
		// An empty CommitReq is a client's explicit context release: the
		// paper's COMMIT is only invoked when WS ≠ ∅, and the clients send
		// none for a read-only transaction (the release rule in package
		// core's comment). The protocol handler already dropped the context.
		// Admitted even in read-only degraded mode — nothing here needs
		// durability.
		r.Send(from, &wire.CommitResp{ReqID: m.ReqID, CT: 0})
		return
	}
	if err := r.Healthy(); err != nil {
		// Read-only admission: the durability this acknowledgement would
		// promise cannot be delivered, so the write is refused with a
		// typed error instead of being accepted into a degraded log.
		r.Send(from, &wire.CommitResp{ReqID: m.ReqID, Code: wire.CommitErrReadOnly, Err: err.Error()})
		return
	}

	type cohortWrites struct {
		partition int
		writes    []wire.KV
	}
	byPartition := make(map[int][]wire.KV)
	for _, kv := range m.Writes {
		p := sharding.PartitionOf(kv.Key, r.cfg.NumPartitions)
		byPartition[p] = append(byPartition[p], kv)
	}
	cohorts := make([]cohortWrites, 0, len(byPartition))
	for p, ws := range byPartition {
		cohorts = append(cohorts, cohortWrites{partition: p, writes: ws})
	}
	_, selfCohort := byPartition[r.cfg.Partition]

	call := &prepareCall{
		ch:   make(chan prepareVote, len(cohorts)),
		seen: make(map[uint64]struct{}, len(cohorts)),
	}
	r.mu.Lock()
	if ct, decided := r.lookupDecisionLocked(m.TxID); decided {
		// A duplicated or resent CommitReq for a transaction this
		// coordinator already decided: answer with the same outcome.
		// Re-running the 2PC would commit the write set a second time at a
		// new timestamp — or, after a "not committed" probe verdict fenced
		// the id, commit a transaction the client was told had failed.
		r.mu.Unlock()
		if ct > 0 {
			r.Send(from, &wire.CommitResp{ReqID: m.ReqID, CT: ct})
		} else {
			r.Send(from, &wire.CommitResp{ReqID: m.ReqID, Code: wire.CommitErrAborted,
				Err: "transaction aborted (fenced by termination probe)"})
		}
		return
	}
	if _, inFlight := r.pendingPrepare[m.TxID]; inFlight {
		// Duplicate of an in-flight commit: the original's collection will
		// answer the client; a second collection would double-prepare.
		r.mu.Unlock()
		return
	}
	if !r.AdmitClient(from) {
		// Per-connection admission: shed BEFORE any 2PC state exists.
		// Dedupe ran first so duplicates of decided transactions are
		// still answered cheaply rather than bounced.
		r.mu.Unlock()
		r.Shed(from, m.ReqID)
		return
	}
	r.pendingPrepare[m.TxID] = call
	r.mu.Unlock()

	for _, c := range cohorts {
		req := makePrepare()
		req.ReqID = r.reqSeq.Add(1)
		req.TxID = m.TxID
		req.Writes = c.writes
		r.proto.StampStable(&req.Stab)
		r.Send(transport.ServerID(r.cfg.DC, c.partition), req)
	}

	r.GoAsync(func() {
		defer r.ReleaseClient(from)
		var ct hlc.Timestamp
		var refusal string
		for range cohorts {
			select {
			case v := <-call.ch:
				if v.err != "" && refusal == "" {
					refusal = v.err
				}
				if v.pt > ct {
					ct = v.pt
				}
			case <-r.stop:
				return
			}
		}
		// The pendingPrepare entry stays registered until the outcome is
		// decided (logged or aborted): TxStatusReq answers "not committed"
		// only when a transaction is in NEITHER pendingPrepare nor the
		// decision log, so the in-flight window must never show a gap — a
		// cohort that restarted mid-2PC probes for exactly this state, and
		// a false final verdict would abort a prepare this decision is
		// about to commit. The outcome is recorded in the same critical
		// section for the same reason: a duplicate CommitReq between the
		// delete and the record would slip past both dedupe checks.
		finish := func(outcome hlc.Timestamp) {
			r.mu.Lock()
			delete(r.pendingPrepare, m.TxID)
			r.recordDecisionLocked(m.TxID, outcome)
			r.mu.Unlock()
		}
		abort := func(errText string) {
			finish(0)
			for _, c := range cohorts {
				r.Send(transport.ServerID(r.cfg.DC, c.partition), &wire.CommitTx{TxID: m.TxID, CT: 0})
			}
			r.Send(from, &wire.CommitResp{ReqID: m.ReqID, Code: wire.CommitErrReadOnly, Err: errText})
		}
		if refusal != "" {
			// A degraded cohort refused its prepare: abort the 2PC (zero
			// CT releases the healthy cohorts' prepares) and surface the
			// typed refusal to the client.
			abort(refusal)
			return
		}
		// The commit decision is logged and made stable BEFORE CommitTx
		// leaves and BEFORE the client ack: the ack's durability promise is
		// this record, and holding CommitTx back until it holds means a
		// failed append/fsync can still abort the whole 2PC cleanly — no
		// cohort has committed yet.
		parts := make([]uint16, 0, len(cohorts))
		for _, c := range cohorts {
			parts = append(parts, uint16(c.partition))
		}
		// INVARIANT (client ack follows a sync covering every cohort's
		// PREPARE and the decision): remote cohorts synced before they
		// voted; this sync covers the decision and, ahead of it in the same
		// log, this server's own PREPARE. Concurrent commit collections
		// share it (see txlog.LogCoordCommitSync).
		r.tl.LogCoordCommitSync(m.TxID, ct, parts)
		if err := r.tl.Healthy(); err != nil {
			// The decision never became durable: withdraw it (so a recovery
			// cannot re-drive a commit the client was told failed), abort
			// the cohorts, refuse the client.
			r.tl.CoordAbort(m.TxID)
			abort(err.Error())
			return
		}
		finish(ct)
		for _, c := range cohorts {
			out := &wire.CommitTx{TxID: m.TxID, CT: ct}
			r.proto.StampStable(&out.Stab)
			r.Send(transport.ServerID(r.cfg.DC, c.partition), out)
		}
		if !selfCohort {
			// A coordinator that wrote nothing gets no CommitTx, and its
			// version clock would sit below ct until the next tick, holding
			// the DC's stable time under a commit its own client is about
			// to be told of: treat the decision as the event it is.
			r.proto.ObserveCommitTS(ct)
			r.KickApply()
		}
		if !r.proto.BeforeCommitReply(ct) {
			return
		}
		r.ctr.TxCommitted.Inc()
		r.Send(from, &wire.CommitResp{ReqID: m.ReqID, CT: ct})
	})
}

// Prepare runs the cohort side of the 2PC (Algorithm 3 lines 13–19):
// propose a commit timestamp strictly past ht and register the prepare.
// The protocol passes ht already folded over everything the client saw;
// the unified log record keeps whichever snapshot fields the message
// carried (Wren's RT scalar, Cure's SV vector).
//
// The proposal and its registration in the pending list happen atomically
// under mu, the same mutex ApplyTick holds while computing its apply
// upper bound. Without that, a pass could interleave between TickPast and
// the registration, compute an upper bound at or above the proposal
// (TickPast has already advanced the clock), publish it as stable — and
// the transaction would later commit INSIDE the stable region, applied
// after readers were already served without it: the causal/atomic
// violations TestTCCConformance* exhibited under CPU starvation, where the
// preemption window between the two statements stretched to milliseconds.
func (r *Runtime) Prepare(from transport.NodeID, m *wire.PrepareReq, ht hlc.Timestamp) {
	if err := r.Healthy(); err != nil {
		// Degraded durability: refuse, so the coordinator aborts instead
		// of committing a write set this cohort cannot log.
		r.Send(from, &wire.PrepareResp{ReqID: m.ReqID, TxID: m.TxID, Err: err.Error()})
		return
	}
	r.mu.Lock()
	pt := r.Clock.TickPast(ht)
	p := &txlog.PreparedTx{TxID: m.TxID, PT: pt, RST: m.RT, SV: m.SV, Writes: m.Writes}
	r.prepared[m.TxID] = p
	r.mu.Unlock()
	resp := &wire.PrepareResp{ReqID: m.ReqID, TxID: m.TxID, PT: pt}
	r.proto.StampStable(&resp.Stab)
	r.tl.LogPrepare(p)
	// INVARIANT (client ack follows a sync covering every cohort's
	// PREPARE): a vote for a REMOTE coordinator leaves only once the record
	// is stable — on a tracked goroutine, so the fsync does not stall the
	// delivery link. This server's own coordinator needs no sync of its
	// own: the record sits in the same log ahead of the decision, whose
	// sync in Commit covers both.
	if r.tl.SyncOnAppend() && from != r.id {
		r.GoAsync(func() {
			r.tl.Sync()
			r.Send(from, r.checkedPrepareResp(resp))
		})
		return
	}
	r.Send(from, r.checkedPrepareResp(resp))
}

// checkedPrepareResp downgrades a prepare proposal to a refusal when the
// append (or fsync) backing it failed: the proposal claims the write set
// is recoverable here, and a vote whose own record never became durable
// must not be cast — only LATER requests being refused would let this one
// transaction commit on a broken promise.
func (r *Runtime) checkedPrepareResp(resp *wire.PrepareResp) *wire.PrepareResp {
	if err := r.tl.Healthy(); err != nil {
		return &wire.PrepareResp{ReqID: resp.ReqID, TxID: resp.TxID, Err: err.Error()}
	}
	return resp
}

func (r *Runtime) handlePrepareResp(from transport.NodeID, m *wire.PrepareResp) {
	r.ObserveStable(from, m.Stab)
	r.mu.Lock()
	call := r.pendingPrepare[m.TxID]
	if call != nil {
		if _, dup := call.seen[m.ReqID]; dup {
			call = nil // duplicated vote: count each cohort's answer once
		} else {
			call.seen[m.ReqID] = struct{}{}
		}
	}
	r.mu.Unlock()
	if call == nil {
		return
	}
	select {
	case call.ch <- prepareVote{pt: m.PT, err: m.Err}:
	default:
		// The channel holds one slot per cohort and votes deduplicate by
		// request id above, so it cannot fill — but a delivery goroutine
		// must never block on the commit path regardless.
	}
}

// HandleCommitTx implements Algorithm 3 lines 20–24: move the transaction
// from the pending list to the commit list under its final timestamp. A
// zero CT aborts instead (degraded-cohort refusal). The outcome is logged
// and acknowledged back to the coordinator, which releases the
// coordinator's logged decision once every cohort holds the outcome
// durably; re-driven outcomes after a restart resolve recovered prepares,
// and outcomes already known deduplicate to just the acknowledgement.
// (Exported because TxStatusResp verdicts flow through the same path.)
//
// Either outcome can make something newly stable — the prepare stops
// holding the apply bound down — so both end by asking for an apply pass:
// the commit is installed now, not at the next ΔR tick.
func (r *Runtime) HandleCommitTx(from transport.NodeID, m *wire.CommitTx) {
	defer r.KickApply()
	if m.CT == 0 {
		r.ObserveStable(from, m.Stab)
		r.mu.Lock()
		delete(r.prepared, m.TxID)
		delete(r.recovered, m.TxID)
		r.mu.Unlock()
		r.tl.LogAbort(m.TxID)
		return
	}
	// The commit timestamp first: what the carrier has seen is then rarely
	// news, and the kick at the end is the only one this message costs.
	r.proto.ObserveCommitTS(m.CT)
	r.ObserveStable(from, m.Stab)
	r.mu.Lock()
	p, ok := r.prepared[m.TxID]
	delete(r.prepared, m.TxID)
	if rp, recovered := r.recovered[m.TxID]; recovered && !ok {
		// A re-driven outcome for a prepare recovered from the txlog: the
		// client was acknowledged in a previous life; commit it now.
		p, ok = rp.tx, true
	}
	// A recovered copy of a live prepare (the coordinator's CommitReq was
	// resent across a restart) goes with it, or a later termination probe
	// would commit the write set a second time.
	delete(r.recovered, m.TxID)
	var c *txlog.CommittedTx
	if ok {
		c = p.Committed(m.CT)
		r.committed = append(r.committed, c)
	}
	r.mu.Unlock()
	if c != nil {
		r.tl.LogCommit(c)
	}
	// INVARIANT (CommitAck follows a sync covering the COMMIT record): the
	// ack states "outcome durable here", and all it does is release the
	// coordinator's retained decision — so it does not pay for an fsync but
	// rides, as a lazy waiter, on the next sync this log runs for anyone
	// (the lifecycle tick flushes an idle log well inside redriveAfter). It
	// is never sent when the append or a sync backing it failed: withholding
	// it keeps the decision pending, to be re-driven rather than resolved on
	// a broken promise. DUPLICATE outcomes wait the same way: a re-driven
	// CommitTx can arrive while the first copy's record is still unsynced.
	ack := &wire.CommitAck{TxID: m.TxID, Partition: uint16(r.cfg.Partition)}
	r.tl.AfterSync(func() {
		if r.tl.Healthy() == nil {
			r.Send(from, ack)
		}
	})
}

// handleCommitAck releases the coordinator's logged commit decision once
// the acknowledging cohort — and eventually all of them — holds the
// outcome durably.
func (r *Runtime) handleCommitAck(m *wire.CommitAck) {
	r.tl.CoordAck(m.TxID, m.Partition)
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
		skip = r.TxApplied
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

// noteApplied queues transactions just written to the engine for the next
// release barrier.
func (r *Runtime) noteApplied(txs []*txlog.CommittedTx) {
	r.relMu.Lock()
	for _, t := range txs {
		r.unreleased = append(r.unreleased, t.TxID)
	}
	r.relMu.Unlock()
}

// release is the ONE place a log is allowed to forget a record, and it
// runs on the lifecycle loop (plus once in recovery and once at Stop),
// never on a delivery goroutine.
//
// INVARIANT (a committed record leaves the txlog only after an
// Engine.Sync that covers its apply; a ReplicateAck follows such a
// barrier): everything queued before the barrier started was written to
// the engine before it started, so Sync covers it. Only then are the
// local records marked applied — which is also the only trigger of the
// transaction log's compaction — and the peers' batches acknowledged. If
// the barrier fails, what it took off the queue is released never: an
// engine failure is sticky, the server is read-only from here, the
// records stay in this log and in the origins' (whose live resync keeps
// offering them), and a restart replays them into the engine.
func (r *Runtime) release() {
	r.relMu.Lock()
	ids, acks := r.unreleased, r.owedAcks
	r.unreleased, r.owedAcks = nil, make([][2]hlc.Timestamp, len(acks))
	r.relMu.Unlock()

	r.st.Sync()
	if r.st.Healthy() != nil {
		return
	}
	r.tl.MarkApplied(ids)
	if r.tl.Healthy() != nil {
		// A degraded replica's own log cannot vouch for anything; the
		// sender's retained tail resyncs us after the repair or a restart.
		return
	}
	for dc, owed := range acks {
		// The resync echo first: it lifts the sender's cursor pin, which
		// would clamp the ordinary ack behind it.
		for _, i := range []int{1, 0} {
			if upTo := owed[i]; upTo > 0 {
				r.Send(transport.ServerID(dc, r.cfg.Partition), &wire.ReplicateAck{
					DC: uint8(r.cfg.DC), Partition: uint16(r.cfg.Partition), UpTo: upTo, Resync: i == 1})
			}
		}
	}
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

// applyLoop is the apply goroutine: every ΔR — the idle fallback — and
// whenever it is kicked it runs an apply pass and ships what the passes
// queued for the other DCs. It is the only shipper while the server runs,
// which is what keeps the batches on each link in commit-timestamp order.
func (r *Runtime) applyLoop() {
	defer r.wg.Done()
	ticker := time.NewTicker(r.cfg.ApplyInterval)
	defer ticker.Stop()
	// shipped: a batch left since the last tick, so the peers' version
	// vectors moved without a heartbeat (Algorithm 4 line 20 heartbeats
	// only an idle partition).
	shipped := false
	for {
		select {
		case <-ticker.C:
			r.ApplyTick()
			r.ship(!shipped)
			shipped = false
		case <-r.kick:
			r.kicked.Store(false)
			r.ApplyTick()
			shipped = r.ship(false) || shipped
		case <-r.stop:
			return
		}
	}
}

// KickApply wakes the apply goroutine to run a pass (and ship) now. It
// takes no lock and never waits, so every delivery handler — the read
// path's included — may call it.
func (r *Runtime) KickApply() {
	if r.kicked.Load() || r.kicked.Swap(true) {
		return
	}
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// ApplyTick runs one apply pass — Algorithm 4 lines 5–21 without the
// sends: install every committed transaction at or below the safe bound,
// then publish the bound as the local version clock — and returns once it
// has run. It is the ONE implementation behind every trigger. The apply
// goroutine runs it on its ΔR tick and whenever an event that can make
// something newly stable kicked it (KickApply: a cohort's CommitTx, a
// coordinator's decision, a replicated-in batch, news of a commit on any
// intra-DC message); Stop runs it for the final flush, and a Cure slice
// read runs it before it parks. The rules, whoever runs it:
//
//   - A stable time MUST NOT be published before every version at or below
//     it is in the engine: PutBatch, THEN VV.Advance.
//   - The bound MUST be computed under mu, the mutex Prepare proposes
//     under, and MUST pin the HLC (Protocol.ApplyBound), so that no later
//     prepare can commit inside the published region.
//   - Passes MUST serialize on applyMu (see the field comment).
//   - A pass MUST NOT send or sync: its Replicate batches are queued for
//     ship, which the apply goroutine runs after its own pass and at the
//     latest on its next tick, and the engine write does not wait for the
//     disk on this path.
//
// Every fold downstream of a pass is a max-merge, so passes run twice, late
// or out of order relative to the messages that carry their result are
// harmless.
func (r *Runtime) ApplyTick() {
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	r.mu.Lock()
	var ub hlc.Timestamp
	if len(r.prepared) > 0 {
		first := true
		for _, p := range r.prepared {
			if first || p.PT < ub {
				ub = p.PT
				first = false
			}
		}
		ub = ub.Prev()
	} else {
		// No pending prepare: the bound follows the protocol's clock
		// reading, which also pins the HLC so any later prepare proposes
		// strictly above ub — otherwise a commit could land at a timestamp
		// already declared stable.
		ub = r.proto.ApplyBound()
	}
	if local := r.VV.Load(r.cfg.DC); ub < local {
		ub = local
	}

	var apply []*txlog.CommittedTx
	if len(r.committed) > 0 {
		rest := r.committed[:0]
		for _, c := range r.committed {
			if c.CT <= ub {
				apply = append(apply, c)
			} else {
				rest = append(rest, c)
			}
		}
		r.committed = rest
	}
	r.mu.Unlock()

	if len(apply) > 0 {
		r.install(apply)
	}
	r.VV.Advance(r.cfg.DC, ub)
	r.proto.AfterInstall()
}

// install writes one pass's transactions to the engine in commit-timestamp
// order and, with other DCs to tell, queues them for ship as one Replicate
// per distinct timestamp (Algorithm 4 lines 8–16). The whole pass goes
// through one shard-grouped PutBatch, which appends to the engine's logs
// without waiting for the disk. Caller holds applyMu and publishes the
// bound afterwards.
func (r *Runtime) install(apply []*txlog.CommittedTx) {
	if len(apply) > 1 {
		sortCommitted(apply)
	}
	replicate := r.cfg.NumDCs > 1
	var batches []*wire.Replicate
	var puts []store.KV
	for i := 0; i < len(apply); {
		j := i
		var batch *wire.Replicate
		if replicate {
			batch = &wire.Replicate{SrcDC: uint8(r.cfg.DC), Partition: uint16(r.cfg.Partition)}
			batches = append(batches, batch)
		}
		for ; j < len(apply) && apply[j].CT == apply[i].CT; j++ {
			t := apply[j]
			puts = r.proto.AppendLocalPuts(puts, t, nil)
			if replicate {
				batch.Txs = append(batch.Txs, r.proto.ReplTxRecord(t))
			}
		}
		i = j
	}
	r.st.PutBatch(puts)
	// Exactly these transactions are now in the engine; the next release
	// barrier lets the log drop their records once replication confirms
	// them. Queued by id, not by bound: a re-driven recovered commit logged
	// concurrently can carry an old ct at or below it without being in this
	// batch.
	r.noteApplied(apply)
	if replicate {
		// Queued BEFORE the caller publishes the bound: ship reads the
		// published clock first and the queue second, so a heartbeat can
		// never overtake a batch at or below its timestamp.
		r.outMu.Lock()
		r.outbox = append(r.outbox, batches...)
		r.outMu.Unlock()
	}
}

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

// gossipLoop runs the protocol's stabilization exchange every ΔG.
func (r *Runtime) gossipLoop() {
	defer r.wg.Done()
	ticker := time.NewTicker(r.cfg.GossipInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			r.proto.GossipTick()
		case <-r.stop:
			return
		}
	}
}

// gcLoop exchanges oldest-active snapshots and prunes version chains.
func (r *Runtime) gcLoop() {
	defer r.wg.Done()
	ticker := time.NewTicker(r.cfg.GCInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			r.gcTick()
		case <-r.stop:
			return
		}
	}
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
	if oldest > r.peerOldest[r.cfg.Partition] {
		r.peerOldest[r.cfg.Partition] = oldest
	}
	threshold := r.peerOldest[0]
	for _, t := range r.peerOldest[1:] {
		if t < threshold {
			threshold = t
		}
	}
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
		if res.Removed > 0 {
			r.ctr.GCRemoved.Add(uint64(res.Removed))
		}
		if res.DroppedKeys > 0 {
			r.ctr.GCKeysDropped.Add(uint64(res.DroppedKeys))
		}
	}
}

func (r *Runtime) handleGCBroadcast(m *wire.GCBroadcast) {
	p := int(m.Partition)
	if p < 0 || p >= r.cfg.NumPartitions {
		return
	}
	r.mu.Lock()
	if m.Oldest > r.peerOldest[p] {
		r.peerOldest[p] = m.Oldest
	}
	r.mu.Unlock()
}

// lifecycleLoop runs the periodic transaction-lifecycle maintenance — the
// release barrier, the flush of an idle log's lazy waiters, 2PC
// termination probes, decision re-drives, and the degraded-mode repair
// probe — on its own timer, independent of the optional GC loop.
func (r *Runtime) lifecycleLoop() {
	defer r.wg.Done()
	ticker := time.NewTicker(lifecycleInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			now := time.Now()
			r.release()
			// CommitAcks wait for a sync somebody else needs; when nobody
			// does, this one releases them (a no-op on a synced log).
			r.tl.Sync()
			if r.txSeq.Load()+seqBlockSize/2 > r.seqLimit.Load() {
				r.reserveSeqs(r.seqLimit.Load())
			}
			r.maybeRepair(now)
			r.txLifecycleTick(now)
		case <-r.stop:
			return
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
	if r.cfg.RepairInterval <= 0 {
		return
	}
	if r.tl.Healthy() == nil || r.st.Healthy() != nil {
		return
	}
	if now.Before(r.nextRepair) {
		return
	}
	r.nextRepair = now.Add(r.cfg.RepairInterval)
	r.tl.Repair()
}

// txLifecycleTick is the periodic maintenance of the durable transaction
// lifecycle: probe the coordinators of recovered prepares whose outcome
// has not arrived (cooperative 2PC termination — only an explicit "not
// committed" answer may abort them), and re-drive the CommitTx of
// unresolved commit decisions whose cohorts have not all confirmed a
// durable outcome (a cohort crash can swallow the original CommitTx or
// its ack without this coordinator ever restarting).
func (r *Runtime) txLifecycleTick(now time.Time) {
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
		dc, p := CoordinatorOf(id)
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

// handleTxStatusReq answers a 2PC-termination probe from the
// coordinator's decisions. "No decision retained" is a final abort
// verdict for a cohort still holding the prepare — either the client was
// never acknowledged, or the decision was resolved, which requires that
// very cohort's durable-commit ack, contradicting a still-dangling
// prepare — UNLESS the 2PC is still collecting votes: then the outcome is
// genuinely undecided (a slow sibling cohort can stall it past the probe
// grace) and the coordinator stays silent, leaving the prober to retry.
//
// Clients send the same probe (with a non-zero ReqID) after a commit
// times out. For them the in-memory decision record answers too — it
// covers resolved decisions the txlog no longer retains — and a "not
// committed" answer FENCES the transaction id: the verdict licenses the
// client to re-drive its write set on another coordinator, so a delayed
// CommitReq surfacing later must find the id already aborted, never a
// fresh 2PC.
func (r *Runtime) handleTxStatusReq(from transport.NodeID, m *wire.TxStatusReq) {
	ct, ok := r.tl.CoordDecision(m.TxID)
	if !ok {
		r.mu.Lock()
		if c, decided := r.lookupDecisionLocked(m.TxID); decided && c > 0 {
			ct, ok = c, true
		}
		if !ok {
			if _, inFlight := r.pendingPrepare[m.TxID]; inFlight {
				r.mu.Unlock()
				return
			}
			if m.ReqID != 0 {
				r.recordDecisionLocked(m.TxID, 0)
			}
		}
		r.mu.Unlock()
	}
	r.Send(from, &wire.TxStatusResp{ReqID: m.ReqID, TxID: m.TxID, CT: ct, Committed: ok})
}

// handleTxStatusResp settles a recovered prepare: a committed verdict
// flows through the normal commit path (including the durable-commit ack
// back to the coordinator); a not-committed verdict finally aborts it.
func (r *Runtime) handleTxStatusResp(from transport.NodeID, m *wire.TxStatusResp) {
	if m.Committed {
		r.HandleCommitTx(from, &wire.CommitTx{TxID: m.TxID, CT: m.CT})
		return
	}
	r.mu.Lock()
	_, ok := r.recovered[m.TxID]
	delete(r.recovered, m.TxID)
	r.mu.Unlock()
	if ok {
		r.tl.LogAbort(m.TxID)
	}
}
