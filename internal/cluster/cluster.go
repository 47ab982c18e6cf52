// Package cluster assembles complete deployments — M data centers times N
// partitions — of Wren, Cure or H-Cure servers over a simulated network,
// mirroring the paper's evaluation platform (§V-A): up to 5 replication
// sites, up to 16 partitions per site, clients collocated with their
// coordinator partition, and NTP-like clock skew between servers.
package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"wren/internal/core"
	"wren/internal/cure"
	"wren/internal/hlc"
	"wren/internal/obs"
	"wren/internal/replica"
	"wren/internal/session"
	"wren/internal/transport"
	"wren/internal/transport/chaos"
	"wren/internal/transport/pool"
)

// Protocol selects the consistency protocol a cluster runs.
type Protocol int

// Supported protocols.
const (
	// Wren is the paper's contribution: CANToR + BDT + BiST.
	Wren Protocol = iota + 1
	// Cure is the state-of-the-art baseline with vector snapshots and
	// blocking reads on physical clocks.
	Cure
	// HCure is Cure with hybrid logical clocks (removes only the
	// clock-skew component of blocking).
	HCure
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case Wren:
		return "Wren"
	case Cure:
		return "Cure"
	case HCure:
		return "H-Cure"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Config describes a deployment.
type Config struct {
	// Protocol selects Wren, Cure or HCure.
	Protocol Protocol
	// NumDCs is the number of replication sites (the paper uses 3 and 5).
	NumDCs int
	// NumPartitions is the number of partitions per DC (4, 8 or 16).
	NumPartitions int
	// IntraDCLatency is the one-way latency between nodes in one DC.
	// Zero selects 100µs.
	IntraDCLatency time.Duration
	// InterDCLatency is the uniform one-way WAN latency. Ignored when
	// UseAWSLatencies is set. Zero selects 10ms.
	InterDCLatency time.Duration
	// UseAWSLatencies replaces the uniform WAN latency with the paper's
	// five-region EC2 matrix.
	UseAWSLatencies bool
	// ClockSkew is the maximum absolute clock offset; each server draws an
	// offset uniformly from [-ClockSkew, +ClockSkew].
	ClockSkew time.Duration
	// Server is the template every partition server is configured from.
	// New copies it once per server and sets DC, Partition, NumDCs,
	// NumPartitions, Network, ClockSource and UseHLC itself; every other
	// field is passed through as documented on replica.Config, except that
	// an empty StoreBackend (FsyncPolicy) is taken from the
	// WREN_STORE_BACKEND (WREN_FSYNC) environment variable, which is how
	// CI runs the whole suite against each durable backend, and that a
	// durable backend with an empty DataDir gets a temporary root, removed
	// again on Close.
	Server replica.Config
	// ClientFailover makes sessions returned by NewClient retry a commit
	// refused with a read-only error once, against a different healthy
	// coordinator partition, instead of surfacing the error immediately.
	ClientFailover bool
	// Seed makes clock-skew assignment reproducible.
	Seed int64
	// RequestTimeout bounds client round trips. Zero selects 10s.
	RequestTimeout time.Duration
	// Chaos interposes a fault-injecting wrapper between the deployment and
	// its simulated network; the Chaos() accessor then exposes partition
	// cuts and per-link loss/delay/duplication rules at runtime.
	Chaos bool
	// ChaosSeed seeds the chaos wrapper's fault decisions (reproducible
	// runs). Only meaningful with Chaos set.
	ChaosSeed int64
	// RetryAttempts is the client retry budget: timed-out idempotent
	// requests are retried this many extra times (Begin failing over to
	// alternate coordinators), and an unacknowledged commit is resolved by
	// up to this many 2PC termination probes instead of being resent. Zero
	// keeps sessions single-attempt.
	RetryAttempts int
	// RetryBackoff is the base client retry backoff (doubling, capped).
	// Zero selects the client default.
	RetryBackoff time.Duration
	// ClientPoolLinks multiplexes all of a DC's client sessions over a
	// shared connection pool with this many links instead of registering
	// one network endpoint per session: requests from many sessions
	// pipeline concurrently over the pool's links and responses are
	// demultiplexed by request id. Zero keeps the legacy
	// one-endpoint-per-session wiring.
	ClientPoolLinks int
}

func (c *Config) fillDefaults() {
	if c.IntraDCLatency == 0 {
		c.IntraDCLatency = 100 * time.Microsecond
	}
	if c.InterDCLatency == 0 {
		c.InterDCLatency = 10 * time.Millisecond
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.Server.StoreBackend == "" {
		c.Server.StoreBackend = os.Getenv("WREN_STORE_BACKEND")
	}
	if c.Server.FsyncPolicy == "" {
		c.Server.FsyncPolicy = os.Getenv("WREN_FSYNC")
	}
}

// Tx is the protocol-independent transaction handle.
type Tx interface {
	// ID returns the coordinator-assigned transaction id.
	ID() uint64
	// Read returns the values of keys within the transaction snapshot.
	Read(keys ...string) (map[string][]byte, error)
	// Write buffers an update; it becomes visible atomically at commit.
	Write(key string, value []byte) error
	// Delete buffers a deletion; at commit it installs a tombstone that
	// hides every older version, and the key reads as absent.
	Delete(key string) error
	// Commit finishes the transaction and returns its commit timestamp
	// (zero for read-only transactions).
	Commit() (hlc.Timestamp, error)
	// Abort abandons the transaction.
	Abort() error
	// Blocked reports how long the transaction's reads were blocked
	// server-side (always zero for Wren).
	Blocked() time.Duration
	// Coordinator returns the coordinator partition the transaction ran on.
	Coordinator() int
}

// Client is the protocol-independent client session.
type Client interface {
	// Begin starts a transaction.
	Begin() (Tx, error)
	// Close ends the session.
	Close()
}

// Cluster is a running deployment.
type Cluster struct {
	cfg Config
	net *transport.Memory
	// chaosNet wraps net when cfg.Chaos is set; servers and clients are
	// registered on it so every message crosses the fault injector.
	chaosNet *chaos.Network

	// servers[dc][partition] is a *core.Server under Wren and a
	// *cure.Server under Cure and H-Cure.
	servers [][]server

	// ephemeralDataDir is a temp dir created for a durable backend when the
	// caller supplied none; Close removes it.
	ephemeralDataDir string

	mu        sync.Mutex
	clientSeq int
	closed    bool
	// pools holds one lazily built client connection pool per DC when
	// Config.ClientPoolLinks is set; sessions bind to their DC's pool
	// instead of registering an endpoint of their own.
	pools []*pool.Pool
}

// server is what the cluster drives on a partition server of either
// protocol.
type server interface {
	Start()
	Stop()
	Kill()
	Healthy() error
	EngineHealthy() error
	Obs() *obs.Registry
}

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	cfg.fillDefaults()
	if cfg.NumDCs <= 0 || cfg.NumPartitions <= 0 {
		return nil, fmt.Errorf("cluster: invalid topology %dx%d", cfg.NumDCs, cfg.NumPartitions)
	}
	switch cfg.Protocol {
	case Wren, Cure, HCure:
	default:
		return nil, fmt.Errorf("cluster: unknown protocol %v", cfg.Protocol)
	}

	var latency transport.LatencyFunc
	if cfg.UseAWSLatencies {
		latency = transport.MatrixLatency(cfg.IntraDCLatency,
			transport.AWSLatencies(1), cfg.InterDCLatency)
	} else {
		latency = transport.UniformLatency(cfg.IntraDCLatency, cfg.InterDCLatency)
	}
	net := transport.NewMemory(latency)
	var fabric transport.Network = net
	var chaosNet *chaos.Network
	if cfg.Chaos {
		chaosNet = chaos.New(net, cfg.ChaosSeed)
		fabric = chaosNet
	}

	var ephemeral string
	if b := cfg.Server.StoreBackend; b != "" && b != "memory" && cfg.Server.DataDir == "" {
		dir, err := os.MkdirTemp("", "wren-data-*")
		if err != nil {
			fabric.Close()
			return nil, fmt.Errorf("cluster: temp data dir: %w", err)
		}
		cfg.Server.DataDir = dir
		ephemeral = dir
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	skewFor := func() time.Duration {
		if cfg.ClockSkew <= 0 {
			return 0
		}
		span := cfg.ClockSkew.Microseconds()
		return time.Duration(rng.Int63n(2*span+1)-span) * time.Microsecond
	}

	c := &Cluster{cfg: cfg, net: net, chaosNet: chaosNet, ephemeralDataDir: ephemeral}
	fail := func(err error) (*Cluster, error) {
		c.Close()
		return nil, err
	}
	for dc := 0; dc < cfg.NumDCs; dc++ {
		c.servers = append(c.servers, nil)
		for p := 0; p < cfg.NumPartitions; p++ {
			scfg := cfg.Server
			scfg.DC, scfg.Partition = dc, p
			scfg.NumDCs, scfg.NumPartitions = cfg.NumDCs, cfg.NumPartitions
			scfg.Network = fabric
			scfg.ClockSource = hlc.OffsetSource{Base: hlc.SystemSource{}, Offset: skewFor()}
			scfg.UseHLC = cfg.Protocol == HCure
			var srv server
			var err error
			if cfg.Protocol == Wren {
				srv, err = core.NewServer(scfg)
			} else {
				srv, err = cure.NewServer(scfg)
			}
			if err != nil {
				return fail(err)
			}
			srv.Start()
			c.servers[dc] = append(c.servers[dc], srv)
		}
	}
	return c, nil
}

// Config returns the cluster's configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Network exposes the underlying simulated network for byte accounting and
// partition injection.
func (c *Cluster) Network() *transport.Memory { return c.net }

// Chaos returns the fault-injection wrapper, or nil when the cluster was
// built without Config.Chaos. Tests use it to cut and heal DC links and to
// impose loss/delay/duplication rules while the deployment is running.
func (c *Cluster) Chaos() *chaos.Network { return c.chaosNet }

// fabric is the network deployments actually register on: the chaos
// wrapper when present, the raw simulated network otherwise.
func (c *Cluster) fabric() transport.Network {
	if c.chaosNet != nil {
		return c.chaosNet
	}
	return c.net
}

// poolNodeBase offsets pool-endpoint node indices far above per-session
// client indices, so pooled link ids can never collide with the ids of
// legacy unpooled sessions on the same fabric.
const poolNodeBase = 1 << 20

// poolForDC returns the DC's shared client connection pool, building it on
// first use. Caller holds c.mu.
func (c *Cluster) poolForDC(dc int) (*pool.Pool, error) {
	if c.pools == nil {
		c.pools = make([]*pool.Pool, c.cfg.NumDCs)
	}
	if c.pools[dc] != nil {
		return c.pools[dc], nil
	}
	eps := make([]pool.Endpoint, c.cfg.ClientPoolLinks)
	for i := range eps {
		eps[i] = pool.Endpoint{
			ID:  transport.ClientID(dc, poolNodeBase+i),
			Net: c.fabric(),
		}
	}
	p, err := pool.New(eps)
	if err != nil {
		return nil, err
	}
	c.pools[dc] = p
	return p, nil
}

// NewClient opens a client session in the given DC. A non-negative
// coordinator fixes the coordinator partition (the paper collocates each
// client with one partition); a negative value picks a random coordinator
// per transaction. With Config.ClientPoolLinks set, the session does not
// get a network endpoint of its own: it binds to one link of the DC's
// shared connection pool and its requests pipeline there alongside every
// other session's.
func (c *Cluster) NewClient(dc, coordinator int) (Client, error) {
	if dc < 0 || dc >= c.cfg.NumDCs {
		return nil, fmt.Errorf("cluster: DC %d out of range", dc)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: closed")
	}
	c.clientSeq++
	idx := c.clientSeq
	var conn *pool.Conn
	if c.cfg.ClientPoolLinks > 0 {
		p, err := c.poolForDC(dc)
		if err != nil {
			c.mu.Unlock()
			return nil, err
		}
		conn = p.Bind()
	}
	c.mu.Unlock()

	cfg := session.Config{
		DC: dc, ClientIndex: idx,
		NumDCs:               c.cfg.NumDCs,
		NumPartitions:        c.cfg.NumPartitions,
		Network:              c.fabric(),
		CoordinatorPartition: coordinator,
		RequestTimeout:       c.cfg.RequestTimeout,
		Retry: session.RetryPolicy{
			Attempts: c.cfg.RetryAttempts,
			Backoff:  c.cfg.RetryBackoff,
		},
	}
	if conn != nil {
		cfg.Conn = conn
	}
	var sess *session.Session
	switch c.cfg.Protocol {
	case Wren:
		cl, err := core.NewClient(cfg)
		if err != nil {
			return nil, err
		}
		sess = cl.Session
	default:
		cl, err := cure.NewClient(cfg)
		if err != nil {
			return nil, err
		}
		sess = cl.Session
	}
	if c.cfg.ClientFailover {
		return &failoverClient{sess: sess, numPartitions: c.cfg.NumPartitions}, nil
	}
	return sessionClient{sess}, nil
}

// ClientPool returns the DC's shared connection pool for stats inspection,
// or nil when the cluster runs unpooled or no session has bound yet.
func (c *Cluster) ClientPool(dc int) *pool.Pool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pools == nil {
		return nil
	}
	return c.pools[dc]
}

// WrenServer returns the Wren server at (dc, partition); nil for other
// protocols.
func (c *Cluster) WrenServer(dc, partition int) *core.Server {
	s, _ := c.servers[dc][partition].(*core.Server)
	return s
}

// CureServer returns the Cure server at (dc, partition); nil for Wren.
func (c *Cluster) CureServer(dc, partition int) *cure.Server {
	s, _ := c.servers[dc][partition].(*cure.Server)
	return s
}

// LocalUpdateVisible reports whether an update committed in this DC at
// timestamp ct has become visible to new transactions started in the same
// DC at partition p — the quantity behind the paper's Figure 7b "local
// visibility" CDF.
func (c *Cluster) LocalUpdateVisible(dc, p int, ct hlc.Timestamp) bool {
	switch c.cfg.Protocol {
	case Wren:
		// Visible once inside the local stable snapshot.
		lst, _ := c.WrenServer(dc, p).StableTimes()
		return lst >= ct
	default:
		// Visible as soon as the origin partition has applied it: Cure
		// snapshots use the coordinator's current clock as local entry.
		return c.CureServer(dc, p).LocalVersionClock() >= ct
	}
}

// RemoteUpdateVisible reports whether an update committed in srcDC at ct is
// visible to new transactions in dc (≠ srcDC) at partition p.
func (c *Cluster) RemoteUpdateVisible(dc, p, srcDC int, ct hlc.Timestamp) bool {
	switch c.cfg.Protocol {
	case Wren:
		// Remote updates are visible once stable: RST has passed their
		// commit time (BiST aggregates all remote DCs into one scalar).
		_, rst := c.WrenServer(dc, p).StableTimes()
		return rst >= ct
	default:
		// Cure tracks per-DC stability: the stable-vector entry for the
		// source DC must pass the commit time.
		gsv := c.CureServer(dc, p).StableVector()
		return gsv[srcDC] >= ct
	}
}

// EnginesHealthy returns the first storage-engine write-path failure any
// server in the deployment has recorded, or nil while every engine is
// fully healthy. Durable backends keep acknowledging from memory after a
// log or flush failure, so benchmarks and tests use this to detect a
// silently degraded shard log instead of discovering it at shutdown.
func (c *Cluster) EnginesHealthy() error {
	return c.firstErr(server.EngineHealthy)
}

// Healthy returns the first write-path durability failure — storage engine
// or transaction log — any server in the deployment has recorded, or nil
// while every server is fully healthy. Unlike EnginesHealthy this covers
// the whole durable write path; a non-nil result means at least one server
// has shed into read-only admission.
func (c *Cluster) Healthy() error {
	return c.firstErr(server.Healthy)
}

// firstErr returns the first non-nil check(s) over every server, tagged
// with the server's position.
func (c *Cluster) firstErr(check func(server) error) error {
	for dc, row := range c.servers {
		for p, s := range row {
			if err := check(s); err != nil {
				return fmt.Errorf("dc%d/p%d: %w", dc, p, err)
			}
		}
	}
	return nil
}

// Sum adds up one registry entry (see package obs) over every server:
// "tx.committed" counts committed transactions, and "admission.shed" the
// requests refused at per-connection admission (each answered with a
// BusyResp that the client retried after backoff).
func (c *Cluster) Sum(name string) uint64 {
	var total uint64
	for _, row := range c.servers {
		for _, s := range row {
			total += s.Obs().Value(name)
		}
	}
	return total
}

// Close stops every server and the network, and removes the data
// directory if the cluster created it itself.
func (c *Cluster) Close() { c.stop(false) }

// Kill hard-stops the deployment, skipping every shutdown courtesy: no
// final apply tick, no commit-list flush, no replies to parked readers —
// the closest an in-process cluster gets to SIGKILL. Recovery tests use it
// with an explicit DataDir to prove that a restarted cluster serves every
// ACKNOWLEDGED transaction from its transaction logs and reconverges its
// DCs from the replication cursors. In-flight messages (including queued
// inter-DC Replicate traffic) die with the network. An ephemeral data
// directory is still removed — nothing could ever reopen it.
func (c *Cluster) Kill() { c.stop(true) }

func (c *Cluster) stop(kill bool) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()

	var wg sync.WaitGroup
	for _, row := range c.servers {
		for _, s := range row {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if kill {
					s.Kill()
				} else {
					s.Stop()
				}
			}()
		}
	}
	wg.Wait()
	for _, p := range c.pools {
		if p != nil {
			p.Close()
		}
	}
	// Closing the chaos wrapper drains its links and closes the inner
	// simulated network.
	c.fabric().Close()
	if c.ephemeralDataDir != "" {
		_ = os.RemoveAll(c.ephemeralDataDir)
	}
}

// sessionClient adapts *session.Session to the Client interface: Begin's
// concrete transaction becomes the Tx interface.
type sessionClient struct{ *session.Session }

func (c sessionClient) Begin() (Tx, error) {
	tx, err := c.Session.Begin()
	if err != nil {
		return nil, err
	}
	return tx, nil
}

// failoverClient wraps a session so that a commit refused with a read-only
// error is retried ONCE against a different healthy coordinator partition
// instead of surfacing the refusal immediately. The refusal means the
// transaction did not commit anywhere, so replaying the buffered write set
// through a fresh transaction on the same session is safe — and the
// session's causal state (Wren's hwt and write cache, Cure's dependency
// vector) guarantees the retried commit still lands strictly after
// everything the session has observed.
type failoverClient struct {
	sess          *session.Session
	numPartitions int
}

func (f *failoverClient) Begin() (Tx, error) {
	tx, err := f.sess.Begin()
	if err != nil {
		return nil, err
	}
	return &failoverTx{Tx: tx, f: f}, nil
}

func (f *failoverClient) Close() { f.sess.Close() }

// writeOp is one buffered mutation, recorded in arrival order so a replay
// preserves last-write-wins within the transaction.
type writeOp struct {
	key   string
	value []byte
	del   bool
}

// failoverTx records the transaction's mutations so a refused commit can
// be replayed on a different coordinator.
type failoverTx struct {
	Tx
	f      *failoverClient
	writes []writeOp
}

func (t *failoverTx) Write(key string, value []byte) error {
	if err := t.Tx.Write(key, value); err != nil {
		return err
	}
	t.writes = append(t.writes, writeOp{key: key, value: value})
	return nil
}

func (t *failoverTx) Delete(key string) error {
	if err := t.Tx.Delete(key); err != nil {
		return err
	}
	t.writes = append(t.writes, writeOp{key: key, del: true})
	return nil
}

func (t *failoverTx) Commit() (hlc.Timestamp, error) {
	ct, err := t.Tx.Commit()
	if err == nil {
		return ct, err
	}
	failed := t.Tx.Coordinator()
	alt := -1
	switch {
	case errors.Is(err, session.ErrReadOnly):
		// The refused coordinator is degraded; probe the remaining
		// partitions for a healthy one and replay there. If none answers
		// healthy, the original refusal stands.
		for p := 0; p < t.f.numPartitions; p++ {
			if p == failed {
				continue
			}
			if ro, _, herr := t.f.sess.Health(p); herr == nil && !ro {
				alt = p
				break
			}
		}
	case errors.Is(err, session.ErrAborted):
		// The commit is fenced: it can never land, so replaying is safe.
		// The coordinator may merely be unreachable rather than unhealthy,
		// so skip the health hunt and go straight to the next partition —
		// the session's own retry policy keeps failing over from there.
		alt = (failed + 1) % t.f.numPartitions
	default:
		return ct, err
	}
	if alt < 0 || alt == failed {
		return 0, err
	}
	retry, berr := t.f.sess.BeginAt(alt)
	if berr != nil {
		return 0, err
	}
	for _, w := range t.writes {
		var werr error
		if w.del {
			werr = retry.Delete(w.key)
		} else {
			werr = retry.Write(w.key, w.value)
		}
		if werr != nil {
			_ = retry.Abort()
			return 0, err
		}
	}
	// A second refusal (or any other failure) surfaces directly: the
	// failover retries once, it does not hunt.
	return retry.Commit()
}
