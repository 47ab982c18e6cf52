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
// Syscalls, not handlers, are what a round costs on loopback, so both
// directions batch whatever is already there: a connection is read through
// a 64 KiB buffer, so one read syscall per wake-up drains every frame the
// socket holds, and a peer's writer encodes every frame queued at wake-up
// into one buffer and writes the burst with one syscall. The write
// deadline is re-armed at most once per WriteTimeout/4 rather than per
// frame.
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
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"wren/internal/obs"
	"wren/internal/transport"
	"wren/internal/wire"
)

const (
	headerLen    = 4 + 1 + 4 + 4
	maxFrameSize = 64 << 20
	// maxRetainedReadBuf caps the per-connection read scratch kept between
	// frames; a rare huge frame doesn't pin its buffer forever.
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
	Evictions  uint64 // connections torn down after a read/write error
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
			pc.close()
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.readLoop(pc, nil)
		}()
	}
}

// trackConn records a live connection for Close; false when already closed.
func (n *Network) trackConn(pc *peerConn) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false
	}
	n.conns[pc] = struct{}{}
	return true
}

// forgetConn closes pc and removes every route through it: the live-conn
// set, any learned entries, and the owning peer's current connection (so
// the next queued frame redials immediately instead of failing first).
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

// readLoop decodes frames and dispatches them to the local handler,
// learning the sender's identity so replies can reuse the connection.
// owner is non-nil for managed (dialed) connections.
func (n *Network) readLoop(pc *peerConn, owner *peer) {
	defer n.forgetConn(pc, owner)
	for {
		from, msg, err := pc.read()
		if err != nil {
			return
		}
		n.mu.Lock()
		if _, hasAddr := n.cfg.Peers[from]; !hasAddr {
			// No configured route back: remember this connection. A fresh
			// connection from the same sender (e.g. a restarted client)
			// replaces the old entry.
			if n.learned[from] != pc {
				n.learned[from] = pc
			}
		}
		h := n.handler
		closed := n.closed
		n.mu.Unlock()
		if closed {
			return
		}
		if h != nil {
			h.HandleMessage(from, msg)
		}
	}
}

// outMsg is one queued outbound message; frames are encoded at write time
// so the pooled encoder keeps the steady-state path allocation-free.
type outMsg struct {
	from transport.NodeID
	m    wire.Message
}

// peer manages the self-healing link to one configured destination.
type peer struct {
	n    *Network
	to   transport.NodeID
	addr string

	mu     sync.Mutex
	q      []outMsg // queued frames are q[head:]
	head   int
	conn   *peerConn // current epoch's connection, nil while down
	epoch  uint64
	closed bool

	notify chan struct{}
	done   chan struct{}
}

func newPeer(n *Network, to transport.NodeID, addr string) *peer {
	p := &peer{
		n:      n,
		to:     to,
		addr:   addr,
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		p.run()
	}()
	return p
}

func (p *peer) enqueue(msg outMsg) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	if len(p.q)-p.head >= p.n.cfg.MaxQueuedFrames {
		p.mu.Unlock()
		p.n.overloaded.Add(1)
		return fmt.Errorf("%w: %d frames queued to %v", transport.ErrOverloaded, p.n.cfg.MaxQueuedFrames, p.to)
	}
	if p.head > 0 && len(p.q) == cap(p.q) {
		// A queue that never runs empty: reclaim the popped prefix before
		// growing, so capacity stays within twice the frame bound.
		n := copy(p.q, p.q[p.head:])
		clear(p.q[n:])
		p.q, p.head = p.q[:n], 0
	}
	p.q = append(p.q, msg)
	p.mu.Unlock()
	select {
	case p.notify <- struct{}{}:
	default:
	}
	return nil
}

func (p *peer) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	pc := p.conn
	p.conn = nil
	p.q, p.head = nil, 0
	p.mu.Unlock()
	close(p.done)
	if pc != nil {
		pc.close()
	}
}

// run is the writer loop: peek every frame queued at wake-up, ensure a
// live connection (redialing with backoff as needed), write them as one
// burst, and only then pop — a burst that fails mid-write is retried whole
// on the next connection epoch.
func (p *peer) run() {
	var burst []outMsg
	for {
		var ok bool
		if burst, ok = p.peek(burst[:0]); !ok {
			return
		}
		pc := p.ensureConn()
		if pc == nil {
			return // closed while (re)dialing
		}
		sent, err := pc.writeBurst(burst, p.n.cfg.WriteTimeout)
		clear(burst)
		if err != nil {
			p.n.evictions.Add(1)
			p.n.forgetConn(pc, p)
			continue // redial and resend the same frames
		}
		p.pop(sent)
	}
}

// peek blocks until a frame is queued and appends a copy of the queue to
// dst (enqueue may move the queue's backing array while the burst is being
// written); it returns false when closed.
func (p *peer) peek(dst []outMsg) ([]outMsg, bool) {
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return dst, false
		}
		if len(p.q) > p.head {
			dst = append(dst, p.q[p.head:]...)
			p.mu.Unlock()
			return dst, true
		}
		p.mu.Unlock()
		select {
		case <-p.notify:
		case <-p.done:
			return dst, false
		}
	}
}

// pop drops the n oldest frames by advancing the head index; the slice is
// rewound once it runs empty.
func (p *peer) pop(n int) {
	p.mu.Lock()
	if n = min(n, len(p.q)-p.head); n > 0 { // close() may have emptied q
		clear(p.q[p.head : p.head+n])
		if p.head += n; p.head == len(p.q) {
			p.q, p.head = p.q[:0], 0
		}
	}
	p.mu.Unlock()
}

// ensureConn returns the live connection, dialing with capped exponential
// backoff plus jitter until it succeeds or the peer closes (nil).
func (p *peer) ensureConn() *peerConn {
	p.mu.Lock()
	pc := p.conn
	p.mu.Unlock()
	if pc != nil {
		return pc
	}

	backoff := p.n.cfg.RedialBackoff
	for {
		d := net.Dialer{Timeout: p.n.cfg.DialTimeout, Cancel: p.done}
		conn, err := d.Dial("tcp", p.addr)
		if err == nil {
			pc = newPeerConn(conn)
			if !p.n.trackConn(pc) {
				pc.close()
				return nil
			}
			p.mu.Lock()
			if p.closed {
				p.mu.Unlock()
				pc.close()
				return nil
			}
			p.conn = pc
			p.epoch++
			redial := p.epoch > 1
			p.mu.Unlock()
			p.n.dials.Add(1)
			if redial {
				p.n.redials.Add(1)
			}
			// Servers reply over the connection the request came from, so
			// read it too. pc goes in as an argument: a captured pc would
			// move to the heap on every call, live connection or not.
			p.n.wg.Add(1)
			go func(pc *peerConn) {
				defer p.n.wg.Done()
				p.n.readLoop(pc, p)
			}(pc)
			return pc
		}
		select {
		case <-p.done:
			return nil
		default:
		}
		// Uniform jitter in [0.5x, 1.5x) de-synchronizes a fleet of
		// peers redialing the same restarted server.
		sleep := backoff/2 + time.Duration(rand.Int63n(int64(backoff)))
		select {
		case <-time.After(sleep):
		case <-p.done:
			return nil
		}
		if backoff *= 2; backoff > p.n.cfg.RedialBackoffCap {
			backoff = p.n.cfg.RedialBackoffCap
		}
	}
}

// peerConn wraps one TCP connection with serialized framed writes, a
// buffered reader and a reusable frame buffer.
type peerConn struct {
	conn net.Conn

	writeMu sync.Mutex
	// deadlineArmed is when the write deadline was last set; see
	// armWriteDeadline. Guarded by writeMu.
	deadlineArmed time.Time

	readMu  sync.Mutex
	br      *bufio.Reader
	lenBuf  [4]byte // the frame length prefix; a local would escape through io.ReadFull
	readBuf []byte  // scratch reused across frames; wire.Decode copies out of it

	closeOnce sync.Once
}

func newPeerConn(c net.Conn) *peerConn {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	return &peerConn{conn: c, br: bufio.NewReaderSize(c, readBufSize)}
}

// encPool recycles frame encoders across connections: steady-state framing
// costs zero allocations instead of one encoder plus one payload plus one
// frame buffer per message.
var encPool = sync.Pool{New: func() any { return wire.NewEncoder() }}

// encodeFrame serializes m with its frame header into enc's reused buffer:
// [4-byte length][1-byte kind][4-byte from.DC][4-byte from.Node][payload].
func encodeFrame(enc *wire.Encoder, from transport.NodeID, m wire.Message) []byte {
	enc.Reset()
	appendFrame(enc, from, m)
	return enc.Bytes()
}

// appendFrame appends one framed message to whatever enc already holds.
func appendFrame(enc *wire.Encoder, from transport.NodeID, m wire.Message) {
	off := enc.Reserve(headerLen)
	wire.EncodeInto(enc, m)
	frame := enc.Bytes()[off:]
	payloadLen := len(frame) - headerLen
	binary.BigEndian.PutUint32(frame[0:4], uint32(1+4+4+payloadLen))
	frame[4] = byte(m.Kind())
	binary.BigEndian.PutUint32(frame[5:9], uint32(int32(from.DC)))
	binary.BigEndian.PutUint32(frame[9:13], uint32(int32(from.Node)))
}

// armWriteDeadline keeps a write deadline between 3/4 and one timeout
// ahead, re-arming it at most once per timeout/4: setting a deadline costs
// a poller-timer update per call, and a stalled peer still fails the write
// within timeout. Caller holds writeMu.
func (pc *peerConn) armWriteDeadline(timeout time.Duration) {
	if timeout <= 0 {
		return
	}
	if now := time.Now(); now.Sub(pc.deadlineArmed) >= timeout/4 {
		_ = pc.conn.SetWriteDeadline(now.Add(timeout))
		pc.deadlineArmed = now
	}
}

func (pc *peerConn) write(from transport.NodeID, m wire.Message, timeout time.Duration) error {
	enc := encPool.Get().(*wire.Encoder)
	encodeFrame(enc, from, m)
	return pc.flush(enc, timeout)
}

// writeBurst encodes the leading frames of msgs — all of them unless the
// buffer reaches maxBurstBytes first — and writes them with one Write. It
// returns how many frames the burst covered; on error none may be assumed
// delivered.
func (pc *peerConn) writeBurst(msgs []outMsg, timeout time.Duration) (int, error) {
	enc := encPool.Get().(*wire.Encoder)
	enc.Reset()
	n := 0
	for n < len(msgs) && len(enc.Bytes()) < maxBurstBytes {
		appendFrame(enc, msgs[n].from, msgs[n].m)
		n++
	}
	return n, pc.flush(enc, timeout)
}

// flush writes the frames encoded in enc with one Write, under the
// connection's write lock and deadline, and returns enc to the pool.
func (pc *peerConn) flush(enc *wire.Encoder, timeout time.Duration) error {
	pc.writeMu.Lock()
	pc.armWriteDeadline(timeout)
	_, err := pc.conn.Write(enc.Bytes())
	pc.writeMu.Unlock()
	encPool.Put(enc)
	return err
}

// read decodes one frame, taking its bytes from the connection's buffered
// reader. The frame body lands in a per-connection scratch buffer reused
// across frames; wire.Decode copies what the message keeps out of it, so
// nothing retained by handlers aliases the scratch. A read result costs
// one value arena and one key string per message, not two copies per
// field (see the wire package comment).
func (pc *peerConn) read() (transport.NodeID, wire.Message, error) {
	pc.readMu.Lock()
	defer pc.readMu.Unlock()

	if _, err := io.ReadFull(pc.br, pc.lenBuf[:]); err != nil {
		return transport.NodeID{}, nil, err
	}
	frameLen := binary.BigEndian.Uint32(pc.lenBuf[:])
	if frameLen < 9 || frameLen > maxFrameSize {
		return transport.NodeID{}, nil, fmt.Errorf("tcp: bad frame length %d", frameLen)
	}
	if cap(pc.readBuf) < int(frameLen) ||
		(cap(pc.readBuf) > maxRetainedReadBuf && frameLen <= maxRetainedReadBuf) {
		pc.readBuf = make([]byte, frameLen)
	}
	body := pc.readBuf[:frameLen]
	if _, err := io.ReadFull(pc.br, body); err != nil {
		return transport.NodeID{}, nil, err
	}
	kind := wire.Kind(body[0])
	from := transport.NodeID{
		DC:   int(int32(binary.BigEndian.Uint32(body[1:5]))),
		Node: int(int32(binary.BigEndian.Uint32(body[5:9]))),
	}
	msg, err := wire.Decode(kind, body[9:])
	if err != nil {
		return transport.NodeID{}, nil, err
	}
	return from, msg, nil
}

func (pc *peerConn) close() {
	pc.closeOnce.Do(func() { _ = pc.conn.Close() })
}
