// Package tcp implements transport.Network over real TCP sockets, so the
// same partition servers that run in the in-process simulator can be
// deployed as separate OS processes (cmd/wren-server) talked to by real
// clients (cmd/wren-cli).
//
// Framing: every message is [4-byte big-endian frame length][1-byte kind]
// [4-byte from.DC][4-byte from.Node][payload]. One persistent connection is
// kept per destination; writes are serialized per connection, preserving
// the FIFO channel assumption of the protocols. Responses to clients reuse
// the inbound connection the request arrived on, so clients need no listen
// address.
//
// Syscalls, not handlers, are what a round costs on loopback, so they are
// counted — tcp.read_calls every read syscall, EAGAIN and EOF included,
// and tcp.write_calls every net.Conn.Write — and both directions batch
// whatever is already there:
//
//   - Reading (read.go): a connection's read loop lives inside one
//     syscall.RawConn.Read for the connection's whole life. Each read fills
//     a 64 KiB buffer, a pure splitter (frameSplitter) cuts it into frames,
//     and every complete frame is dispatched before the next read. When the
//     kernel reports the socket drained (Linux's TCP_INQ hint: no bytes and
//     no FIN left), the loop waits for the poller's next edge instead of
//     probing with a read that would return EAGAIN, so a frame that arrives
//     alone costs one read. The loop never leaves RawConn.Read between
//     reads: re-entering it clears the poller's readiness token, and an
//     edge that arrived during dispatch would be lost.
//   - Writing (write.go): a peer's writer encodes every frame queued at
//     wake-up into one buffer and writes the burst with one syscall. The
//     write deadline is re-armed at most once per WriteTimeout/4 rather
//     than per frame.
//
// Handlers run inside the read loop, while it holds the descriptor's read
// reference, and net.Conn.Close waits for every reference: a handler that
// closed its own connection would wait for itself. So the read loop is the
// descriptor's only closer. Every other path (an eviction, a peer's close,
// Network.Close) shuts the socket down in both directions, which wakes the
// loop with EOF, and marks the connection shut, which ends the loop before
// it delivers another frame; a connection that never got a loop is closed
// directly.
//
// Links self-heal. Each configured peer gets a dedicated writer goroutine
// draining a bounded outbound queue; when a write or read fails the
// connection is torn down and the writer redials with capped exponential
// backoff plus jitter, bumping the link's epoch on every successful
// (re)establishment. A burst that failed mid-write is resent whole on the
// next epoch — delivery is at-least-once across reconnects, and the
// protocols deduplicate. When the queue is full, Send sheds the message with
// transport.ErrOverloaded instead of blocking the caller. Dead learned
// (inbound) connections are evicted immediately, never poisoning a route.
package tcp

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"wren/internal/obs"
	"wren/internal/transport"
	"wren/internal/wire"
)

const (
	headerLen    = 4 + 1 + 4 + 4
	maxFrameSize = 64 << 20
	// maxRetainedReadBuf caps the per-connection scratch kept between
	// frames too large for the read buffer; a rare huge frame doesn't pin
	// its buffer forever.
	maxRetainedReadBuf = 1 << 20
	// readBufSize is the per-connection socket read buffer: one read
	// syscall fetches every frame already in the socket, up to this much.
	readBufSize = 64 << 10
	// maxBurstBytes stops a writer's burst growing once its encoded frames
	// reach this size; the frames still queued go out in the next burst.
	maxBurstBytes = 64 << 10
)

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("tcp: network closed")

// ErrNoRoute is returned when no address or learned connection exists for
// the destination.
var ErrNoRoute = errors.New("tcp: no route to destination")

// Config configures one process's endpoint.
type Config struct {
	// Self is this process's node id.
	Self transport.NodeID
	// ListenAddr is the TCP address to accept peer connections on; empty
	// for pure-client processes that never receive unsolicited messages.
	ListenAddr string
	// Peers maps node ids to their listen addresses.
	Peers map[transport.NodeID]string
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// WriteTimeout bounds how long a write may stall (default 10s). A
	// stalled peer fails the write, tearing the connection down for redial,
	// instead of wedging the writer goroutine forever.
	WriteTimeout time.Duration
	// MaxQueuedFrames bounds each peer's outbound queue (default 1024).
	// When full, Send returns transport.ErrOverloaded.
	MaxQueuedFrames int
	// RedialBackoff is the base delay before the first redial attempt
	// (default 50ms); it doubles per consecutive failure up to
	// RedialBackoffCap (default 2s), with uniform jitter in [0.5x, 1.5x).
	RedialBackoff    time.Duration
	RedialBackoffCap time.Duration
}

// Stats is a snapshot of the connection lifecycle counters (in the
// network's registry as tcp.dials, tcp.redials, tcp.evictions and
// tcp.overloaded) since the network was created.
type Stats struct {
	Dials      uint64 // successful connection establishments
	Redials    uint64 // subset of Dials that replaced a failed connection
	Evictions  uint64 // connections torn down after a write error or an undecodable frame
	Overloaded uint64 // sends shed because a peer queue was full
}

// Network is a TCP-backed transport.Network for a single local node.
type Network struct {
	cfg      Config
	listener net.Listener

	mu      sync.Mutex
	handler transport.Handler // handler for Self
	peers   map[transport.NodeID]*peer
	learned map[transport.NodeID]*peerConn // inbound connections by sender
	conns   map[*peerConn]struct{}         // every live connection; pruned on close
	closed  bool

	reg                                   *obs.Registry
	dials, redials, evictions, overloaded *obs.Counter
	readCalls, writeCalls                 *obs.Counter // socket syscalls

	wg sync.WaitGroup
}

var _ transport.Network = (*Network)(nil)

// New creates the endpoint and, if ListenAddr is set, starts accepting.
func New(cfg Config) (*Network, error) {
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.MaxQueuedFrames == 0 {
		cfg.MaxQueuedFrames = 1024
	}
	if cfg.RedialBackoff == 0 {
		cfg.RedialBackoff = 50 * time.Millisecond
	}
	if cfg.RedialBackoffCap == 0 {
		cfg.RedialBackoffCap = 2 * time.Second
	}
	reg := obs.New("tcp " + cfg.Self.String())
	n := &Network{
		cfg:        cfg,
		peers:      make(map[transport.NodeID]*peer),
		learned:    make(map[transport.NodeID]*peerConn),
		conns:      make(map[*peerConn]struct{}),
		reg:        reg,
		dials:      reg.Counter("tcp.dials"),
		redials:    reg.Counter("tcp.redials"),
		evictions:  reg.Counter("tcp.evictions"),
		overloaded: reg.Counter("tcp.overloaded"),
		readCalls:  reg.Counter("tcp.read_calls"),
		writeCalls: reg.Counter("tcp.write_calls"),
	}
	if cfg.ListenAddr != "" {
		l, err := net.Listen("tcp", cfg.ListenAddr)
		if err != nil {
			return nil, fmt.Errorf("tcp: listen %s: %w", cfg.ListenAddr, err)
		}
		n.listener = l
		n.wg.Add(1)
		go n.acceptLoop()
	}
	return n, nil
}

// Addr returns the bound listen address (useful with ":0").
func (n *Network) Addr() string {
	if n.listener == nil {
		return ""
	}
	return n.listener.Addr().String()
}

// Register implements transport.Network. Only the local node can be
// registered.
func (n *Network) Register(id transport.NodeID, h transport.Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if id == n.cfg.Self {
		n.handler = h
	}
}

// Obs returns the network's metrics registry.
func (n *Network) Obs() *obs.Registry { return n.reg }

// Stats returns a snapshot of the connection lifecycle counters.
func (n *Network) Stats() Stats {
	return Stats{
		Dials:      n.dials.Load(),
		Redials:    n.redials.Load(),
		Evictions:  n.evictions.Load(),
		Overloaded: n.overloaded.Load(),
	}
}

// Epoch reports how many times the managed connection to the given peer
// has been successfully (re)established; zero when never connected.
func (n *Network) Epoch(to transport.NodeID) uint64 {
	n.mu.Lock()
	p := n.peers[to]
	n.mu.Unlock()
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epoch
}

// Send implements transport.Network.
func (n *Network) Send(from, to transport.NodeID, m wire.Message) error {
	if to == n.cfg.Self {
		n.mu.Lock()
		h := n.handler
		closed := n.closed
		n.mu.Unlock()
		if closed {
			return ErrClosed
		}
		if h != nil {
			// Local loopback keeps handler semantics asynchronous-ish but
			// simple; server handlers never block.
			h.HandleMessage(from, m)
		}
		return nil
	}

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	if addr, ok := n.cfg.Peers[to]; ok {
		p := n.peers[to]
		if p == nil {
			p = newPeer(n, to, addr)
			n.peers[to] = p
		}
		n.mu.Unlock()
		return p.enqueue(outMsg{from: from, m: m})
	}
	pc := n.learned[to]
	n.mu.Unlock()
	if pc == nil {
		return fmt.Errorf("%w: %v", ErrNoRoute, to)
	}
	// Learned (inbound) connections have no writer goroutine: replies are
	// written synchronously under a deadline, and a dead connection is
	// evicted so the next request's connection can be learned fresh.
	if err := pc.write(from, m, n.cfg.WriteTimeout); err != nil {
		n.evictions.Add(1)
		n.forgetConn(pc, nil)
		return fmt.Errorf("tcp: write to %v: %w", to, err)
	}
	return nil
}

// Close implements transport.Network.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	peers := make([]*peer, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	conns := make([]*peerConn, 0, len(n.conns))
	for pc := range n.conns {
		conns = append(conns, pc)
	}
	listener := n.listener
	n.mu.Unlock()

	if listener != nil {
		_ = listener.Close()
	}
	for _, p := range peers {
		p.close()
	}
	for _, pc := range conns {
		pc.close()
	}
	n.wg.Wait()
}

func (n *Network) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			return // listener closed
		}
		pc := newPeerConn(conn)
		if !n.trackConn(pc) {
			_ = conn.Close() // no read loop will close it
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.readLoop(pc, nil)
		}()
	}
}

// trackConn records a live connection for Close and points its syscall
// counts at this network's registry; false when already closed.
func (n *Network) trackConn(pc *peerConn) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false
	}
	n.conns[pc] = struct{}{}
	pc.reads, pc.writes = n.readCalls, n.writeCalls
	return true
}

// forgetConn shuts pc down and removes every route through it: the
// live-conn set, any learned entries, and the owning peer's current
// connection (so the next queued frame redials immediately instead of
// failing first). It never waits for pc's read loop, so a handler running
// inside that loop may call it.
func (n *Network) forgetConn(pc *peerConn, owner *peer) {
	pc.close()
	n.mu.Lock()
	delete(n.conns, pc)
	for id, l := range n.learned {
		if l == pc {
			delete(n.learned, id)
		}
	}
	n.mu.Unlock()
	if owner != nil {
		owner.mu.Lock()
		if owner.conn == pc {
			owner.conn = nil
		}
		owner.mu.Unlock()
	}
}

// peerConn is one TCP connection: serialized framed writes from any
// goroutine, and one read loop (read.go) that owns the descriptor.
type peerConn struct {
	conn net.Conn

	// reads and writes count the read syscalls and the Write calls made on
	// the connection; trackConn points them at the network's registry.
	reads, writes *obs.Counter

	// shut is set once the connection is shut down. deliver checks it
	// under Network.mu, so a frame still buffered behind an eviction is
	// never delivered and never puts the connection back in learned.
	shut atomic.Bool

	writeMu sync.Mutex
	// deadlineArmed is when the write deadline was last set; see
	// armWriteDeadline. Guarded by writeMu.
	deadlineArmed time.Time
}

func newPeerConn(c net.Conn) *peerConn {
	pc := &peerConn{conn: c, reads: new(obs.Counter), writes: new(obs.Counter)}
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	return pc
}

// close shuts the connection down in both directions, which wakes its read
// loop with EOF; the loop then closes the descriptor. Closing it here
// would wait for the loop, and so for any handler it is running — possibly
// the caller.
func (pc *peerConn) close() {
	pc.shut.Store(true)
	if tc, ok := pc.conn.(*net.TCPConn); ok {
		_ = tc.CloseRead()
		_ = tc.CloseWrite()
		return
	}
	_ = pc.conn.Close()
}
