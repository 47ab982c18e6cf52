package replica

import (
	"fmt"
	"path/filepath"
	"time"

	"wren/internal/hlc"
	"wren/internal/store/backend"
	"wren/internal/transport"
	"wren/internal/txlog"
	"wren/internal/wire"
)

// Topology bounds the wire and the tx id format set: a DC travels as a
// uint8 (Replicate.SrcDC, ReplicateAck.DC) and fills the top byte of a tx
// id; a partition travels as a uint16, fills the id's next two bytes, and
// must stay below transport.ClientBase to name a server, not a client.
const (
	maxDCs        = wire.MaxDCs
	maxPartitions = transport.ClientBase
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

// resendBatchSize is how many transactions a rewind's Replicate carries,
// and resendBatchBytes the most bytes it takes, unless the last
// timestamp's run makes it longer (see rewindBatchLen). A quarter of the
// frame bound leaves a run of small transactions room past it.
const (
	resendBatchSize  = 128
	resendBatchBytes = wire.MaxFrameLen / 4
)

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

// rewindStallTicks is how many lifecycle ticks a peer DC's replication
// cursor may sit still below what was shipped before the stream rewinds to
// it (a lost batch or acknowledgement, a recovered link, a restarted peer).
const rewindStallTicks = 3

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
	// default) keeps versions only in memory; backend.SST, the one durable
	// engine, is the memtable+sorted-run engine (a log over the active
	// memtable only, immutable runs serving snapshot reads lock-free,
	// merge compaction). Every backend opens store.DefaultShards lock
	// stripes.
	StoreBackend string
	// DataDir is the root directory durable backends write under. The
	// server uses DataDir/dc<m>-p<n>, so servers of one deployment can
	// share a root. Required when StoreBackend is backend.SST.
	DataDir string
	// FsyncPolicy is the transaction log's sync policy: "always" (a record
	// is stable before the acknowledgement it precedes leaves the server),
	// "interval" (the "" default: an append no pending timer covers arms a
	// one-shot 10ms timer that syncs it) or "never". A durable backend
	// always runs behind the transaction-lifecycle log, the one
	// fsync-before-ack point: PREPARE and COMMIT records are written before
	// the acknowledgement they back (the durability unit), and a persisted
	// per-DC replication cursor lets a restarted server re-send the
	// unreplicated tail. The engine's own logs never sync on this policy
	// (see New). Checked on every backend, though the memory backend's
	// transaction log keeps the lifecycle in memory and never syncs.
	FsyncPolicy string
	// MaxInflightPerConn caps the admission-gated client requests
	// (transactional reads and write commits) outstanding per client
	// connection. Beyond the cap the request is shed with a BusyResp —
	// typed backpressure the client retry policies absorb with a delayed
	// resend — instead of queueing unbounded fan-in and 2PC state for one
	// connection. Zero selects DefaultMaxInflightPerConn.
	MaxInflightPerConn int

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

// Validate checks the topology, the knobs that have no negative meaning
// and the storage configuration, prefixing errors with name, the owning
// protocol package ("core", "cure").
func (c *Config) Validate(name string) error {
	if c.NumDCs <= 0 || c.NumPartitions <= 0 || c.NumDCs > maxDCs || c.NumPartitions > maxPartitions {
		return fmt.Errorf("%s: invalid topology %dx%d (want 1..%d DCs of 1..%d partitions)",
			name, c.NumDCs, c.NumPartitions, maxDCs, maxPartitions)
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
	for _, k := range []struct {
		knob string
		v    int64
	}{
		{"ApplyInterval", int64(c.ApplyInterval)}, {"GossipInterval", int64(c.GossipInterval)},
		{"TxContextTTL", int64(c.TxContextTTL)}, {"MaxInflightPerConn", int64(c.MaxInflightPerConn)},
	} {
		if k.v < 0 {
			return fmt.Errorf("%s: negative %s", name, k.knob)
		}
	}
	if err := backend.Validate(c.StoreBackend, c.DataDir); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if _, err := txlog.ParseFsync(c.FsyncPolicy); err != nil {
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
