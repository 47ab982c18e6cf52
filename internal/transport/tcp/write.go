package tcp

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"wren/internal/transport"
	"wren/internal/wire"
)

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
				_ = conn.Close() // no read loop will close it
				return nil
			}
			p.mu.Lock()
			if p.closed {
				p.mu.Unlock()
				_ = conn.Close()
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

// flush writes the frames encoded in enc with one net.Conn.Write, under
// the connection's write lock and deadline, and returns enc to the pool.
// The call counts as one write: it is one syscall unless the socket's send
// buffer fills, when Write waits for the poller and writes the rest.
func (pc *peerConn) flush(enc *wire.Encoder, timeout time.Duration) error {
	pc.writeMu.Lock()
	pc.armWriteDeadline(timeout)
	pc.writes.Add(1)
	_, err := pc.conn.Write(enc.Bytes())
	pc.writeMu.Unlock()
	encPool.Put(enc)
	return err
}
