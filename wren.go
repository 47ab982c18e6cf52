// Package wren is a partitioned, geo-replicated, transactional causally
// consistent (TCC) key-value store with nonblocking reads — a faithful Go
// implementation of "Wren: Nonblocking Reads in a Partitioned Transactional
// Causally Consistent Data Store" (Spirovska, Didona, Zwaenepoel, DSN'18).
//
// A Cluster embeds a complete multi-DC deployment (partition servers,
// replication, stabilization, clients) in-process, over a simulated network
// with configurable WAN latencies and clock skew. The same servers also run
// over real TCP sockets via cmd/wren-server.
//
// Quickstart:
//
//	cl, err := wren.NewCluster(wren.Config{NumDCs: 3, NumPartitions: 8})
//	if err != nil { ... }
//	defer cl.Close()
//
//	client, err := cl.Client(0)
//	if err != nil { ... }
//	defer client.Close()
//
//	tx, _ := client.Begin()
//	tx.Write("alice:friends", []byte("bob"))
//	tx.Write("bob:friends", []byte("alice")) // atomic with the above
//	ct, _ := tx.Commit()
//
// Besides Wren itself, the package can run the paper's baselines (Cure and
// H-Cure) for comparison; see Config.Protocol.
package wren

import (
	"fmt"
	"time"

	"wren/internal/cluster"
	"wren/internal/hlc"
	"wren/internal/replica"
	"wren/internal/sharding"
)

// Timestamp is a hybrid-logical-clock timestamp. Larger means causally
// later (or concurrent with a larger clock reading).
type Timestamp = hlc.Timestamp

// Protocol selects the consistency protocol a cluster runs.
type Protocol int

// Supported protocols.
const (
	// Wren runs the paper's contribution: nonblocking transactional causal
	// consistency (CANToR + BDT + BiST). This is the default.
	Wren Protocol = iota
	// Cure runs the state-of-the-art baseline with vector snapshots and
	// blocking reads.
	Cure
	// HCure runs Cure with hybrid logical clocks.
	HCure
)

// String implements fmt.Stringer.
func (p Protocol) String() string { return p.internal().String() }

func (p Protocol) internal() cluster.Protocol {
	switch p {
	case Cure:
		return cluster.Cure
	case HCure:
		return cluster.HCure
	default:
		return cluster.Wren
	}
}

// Config describes a cluster deployment. Its server fields are a deliberate
// subset of the partition-server configuration: every other server knob
// keeps its default.
type Config struct {
	// Protocol selects Wren (default), Cure or HCure.
	Protocol Protocol
	// NumDCs is the number of replication sites (data centers).
	NumDCs int
	// NumPartitions is the number of partitions (shards) per DC.
	NumPartitions int
	// IntraDCLatency is the simulated one-way latency within a DC
	// (default 100µs).
	IntraDCLatency time.Duration
	// InterDCLatency is the simulated one-way WAN latency (default 10ms).
	// Ignored when UseAWSLatencies is set.
	InterDCLatency time.Duration
	// UseAWSLatencies applies the paper's five-region EC2 latency matrix
	// (Virginia, Oregon, Ireland, Mumbai, Sydney).
	UseAWSLatencies bool
	// ClockSkew is the maximum simulated NTP offset per server.
	ClockSkew time.Duration
	// ApplyInterval is ΔR, the idle fallback period of apply and
	// replication (default 5ms): commits are applied and shipped as they are
	// decided, the timer covers partitions that hear nothing and paces
	// their heartbeats.
	ApplyInterval time.Duration
	// GossipInterval is ΔG, the idle fallback period of stabilization
	// (default 5ms): Wren's stable times travel on the transactions' own
	// messages, the timer covers partitions that exchange none (and all of
	// Cure's vector gossip).
	GossipInterval time.Duration
	// GCInterval is the version garbage-collection period (default 500ms;
	// negative disables).
	GCInterval time.Duration
	// StoreBackend selects each server's storage engine: "" or "memory"
	// keeps versions only in memory; "sst", the one durable engine, is
	// the memtable+sorted-run engine — a log over the active memtable
	// only, with background flushes to immutable sorted runs that serve
	// snapshot reads lock-free and merge compaction folding them
	// together. It makes a cluster restartable from the same DataDir.
	StoreBackend string
	// DataDir is the root directory durable backends write under; every
	// server uses its own dc<m>-p<n> subdirectory. Empty with a durable
	// backend selects a temporary directory removed on Close.
	DataDir string
	// FsyncPolicy is the sync policy of the transaction-lifecycle log every
	// durable backend runs behind: "always" (a PREPARE or COMMIT record is
	// on disk before the acknowledgement it precedes), "interval" (default:
	// a 10ms timer syncs it) or "never". The storage engines never sync on
	// it. The log makes the ACKNOWLEDGED transaction the durability unit
	// (exact under "always", interval-bounded otherwise), and a persisted
	// per-DC replication cursor lets a restarted cluster re-send the
	// unreplicated tail so DCs reconverge.
	FsyncPolicy string
	// Seed fixes the clock-skew assignment for reproducibility.
	Seed int64
}

// Client is a client session. Sessions are single-threaded: one transaction
// at a time, matching the paper's model where a client does not issue an
// operation until the previous one returns.
type Client = cluster.Client

// Tx is an interactive read-write transaction. Reads observe a causal
// snapshot; writes become visible atomically at commit.
type Tx = cluster.Tx

// Cluster is a running multi-DC deployment.
type Cluster struct {
	inner *cluster.Cluster
}

// NewCluster builds and starts a cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.NumDCs == 0 {
		cfg.NumDCs = 1
	}
	if cfg.NumPartitions == 0 {
		cfg.NumPartitions = 1
	}
	inner, err := cluster.New(cluster.Config{
		Protocol:        cfg.Protocol.internal(),
		NumDCs:          cfg.NumDCs,
		NumPartitions:   cfg.NumPartitions,
		IntraDCLatency:  cfg.IntraDCLatency,
		InterDCLatency:  cfg.InterDCLatency,
		UseAWSLatencies: cfg.UseAWSLatencies,
		ClockSkew:       cfg.ClockSkew,
		Server: replica.Config{
			ApplyInterval:  cfg.ApplyInterval,
			GossipInterval: cfg.GossipInterval,
			GCInterval:     cfg.GCInterval,
			StoreBackend:   cfg.StoreBackend,
			DataDir:        cfg.DataDir,
			FsyncPolicy:    cfg.FsyncPolicy,
		},
		Seed: cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("wren: %w", err)
	}
	return &Cluster{inner: inner}, nil
}

// Client opens a client session in the given DC. The session is pinned to a
// coordinator partition chosen round-robin; use ClientAt for explicit
// placement.
func (c *Cluster) Client(dc int) (Client, error) {
	return c.inner.NewClient(dc, -1)
}

// ClientAt opens a client session in dc collocated with the given
// coordinator partition, as the paper's benchmark clients are.
func (c *Cluster) ClientAt(dc, coordinatorPartition int) (Client, error) {
	if coordinatorPartition < 0 || coordinatorPartition >= c.inner.Config().NumPartitions {
		return nil, fmt.Errorf("wren: coordinator partition %d out of range", coordinatorPartition)
	}
	return c.inner.NewClient(dc, coordinatorPartition)
}

// PartitionInterDCLink cuts (down=true) or heals (down=false) the network
// between two DCs. While partitioned, each DC keeps serving transactions —
// causal consistency is available under partition — and replication
// resumes after healing. A DC is never cut off from itself: dcA == dcB
// does nothing.
func (c *Cluster) PartitionInterDCLink(dcA, dcB int, down bool) {
	net := c.inner.Network()
	if dcA == dcB {
		return
	}
	if down {
		net.Cut(dcA, dcB)
		net.Cut(dcB, dcA)
		return
	}
	net.Heal(dcA, dcB)
	net.Heal(dcB, dcA)
}

// LocalUpdateVisible reports whether an update committed in dc at ct is
// visible to new transactions in the same DC (at the partition owning the
// key that was written).
func (c *Cluster) LocalUpdateVisible(dc int, key string, ct Timestamp) bool {
	p := sharding.PartitionOf(key, c.inner.Config().NumPartitions)
	return c.inner.LocalUpdateVisible(dc, p, ct)
}

// RemoteUpdateVisible reports whether an update committed in srcDC at ct is
// visible to new transactions in dc.
func (c *Cluster) RemoteUpdateVisible(dc int, key string, srcDC int, ct Timestamp) bool {
	p := sharding.PartitionOf(key, c.inner.Config().NumPartitions)
	return c.inner.RemoteUpdateVisible(dc, p, srcDC, ct)
}

// NumDCs returns the number of replication sites.
func (c *Cluster) NumDCs() int { return c.inner.Config().NumDCs }

// NumPartitions returns the number of partitions per DC.
func (c *Cluster) NumPartitions() int { return c.inner.Config().NumPartitions }

// Close stops all servers and releases resources.
func (c *Cluster) Close() { c.inner.Close() }

// PartitionOf returns the partition responsible for key in a cluster with
// numPartitions partitions — the deterministic hash sharding of §II-A.
func PartitionOf(key string, numPartitions int) int {
	return sharding.PartitionOf(key, numPartitions)
}
