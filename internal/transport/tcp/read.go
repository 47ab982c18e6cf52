package tcp

import (
	"encoding/binary"
	"fmt"
	"syscall"

	"wren/internal/transport"
	"wren/internal/wire"
)

// readLoop reads pc for its whole life and dispatches every frame to the
// local handler, learning the sender's identity so replies can reuse the
// connection. pc.conn is a socket (dialed or accepted), and owner is
// non-nil for managed (dialed) connections. It is the descriptor's only
// closer: see the package comment.
func (n *Network) readLoop(pc *peerConn, owner *peer) {
	if raw, err := pc.conn.(syscall.Conn).SyscallConn(); err == nil {
		r := &reader{n: n, pc: pc, s: newFrameSplitter()}
		enableInq(raw)
		_ = raw.Read(r.readable)
	}
	n.forgetConn(pc, owner)
	_ = pc.conn.Close()
}

// reader is one connection's read-loop state. Its readable method is the
// RawConn.Read callback for the connection's whole life, so one method
// value serves every read.
type reader struct {
	n    *Network
	pc   *peerConn
	s    *frameSplitter
	sock sockReader
}

// readable reads until the kernel reports the socket drained, dispatching
// every complete frame after each read. It returns false to wait for the
// poller's next edge and true to end the loop (EOF, an error, a bad
// frame, or the network closed).
func (r *reader) readable(fd uintptr) bool {
	for {
		r.pc.reads.Add(1)
		n, more, err := r.sock.recv(int(fd), r.s.space())
		switch {
		case err == syscall.EINTR:
			continue
		case err == syscall.EAGAIN:
			return false
		case err != nil, n == 0: // a failed read, or EOF
			return true
		}
		r.s.filled(n)
		for {
			from, m, err := r.s.next()
			if err != nil {
				r.n.evictions.Add(1) // a frame no handler can be given
				return true
			}
			if m == nil {
				break
			}
			if !r.n.deliver(r.pc, from, m) {
				return true
			}
		}
		if !more {
			return false
		}
	}
}

// deliver hands one frame to the local handler, first learning the
// sender's connection when there is no configured route back; false, with
// nothing delivered, once the network is closed or pc is shut down.
func (n *Network) deliver(pc *peerConn, from transport.NodeID, msg wire.Message) bool {
	n.mu.Lock()
	// forgetConn marks pc shut before it takes mu to drop pc's routes, so
	// checking here, under mu, never learns a forgotten connection.
	if n.closed || pc.shut.Load() {
		n.mu.Unlock()
		return false
	}
	if _, hasAddr := n.cfg.Peers[from]; !hasAddr {
		// No configured route back: remember this connection. A fresh
		// connection from the same sender (e.g. a restarted client)
		// replaces the old entry.
		if n.learned[from] != pc {
			n.learned[from] = pc
		}
	}
	h := n.handler
	n.mu.Unlock()
	if h != nil {
		h.HandleMessage(from, msg)
	}
	return true
}

// frameSplitter cuts a byte stream into frames. It does no I/O: bytes land
// in the slice space returns, filled records how many did, and next then
// hands out each complete frame in order until it returns a nil message.
// A frame that fits the read buffer is decoded where it landed; a larger
// one is collected in a scratch buffer that is reused across frames up to
// maxRetainedReadBuf. wire.Decode copies what a message keeps, so nothing
// a handler retains aliases either buffer.
type frameSplitter struct {
	buf  []byte // readBufSize; the bytes not yet split are buf[r:w]
	r, w int

	// big collects the body of a frame too large for buf, bigLen bytes
	// once complete; it is non-nil only while such a frame arrives.
	big     []byte
	bigLen  int
	scratch []byte // big's backing array, kept for the next large frame
}

func newFrameSplitter() *frameSplitter {
	return &frameSplitter{buf: make([]byte, readBufSize)}
}

// space returns where the next bytes must land; it is never empty once
// next has returned a nil message.
func (s *frameSplitter) space() []byte {
	if s.big != nil {
		if len(s.big) == cap(s.big) {
			// Grow by doubling, up to the frame's length: a length prefix
			// alone never allocates more than twice what has arrived.
			grown := make([]byte, len(s.big), min(s.bigLen, 2*cap(s.big)))
			copy(grown, s.big)
			s.big, s.scratch = grown, grown
		}
		return s.big[len(s.big):min(cap(s.big), s.bigLen)]
	}
	if s.r > 0 { // a partial frame: move it to the front
		s.w = copy(s.buf, s.buf[s.r:s.w])
		s.r = 0
	}
	return s.buf[s.w:]
}

// filled records that the first n bytes of space's slice hold data.
func (s *frameSplitter) filled(n int) {
	if s.big != nil {
		s.big = s.big[:len(s.big)+n]
	} else {
		s.w += n
	}
}

// next returns the next complete frame's sender and message, or a nil
// message when the bytes held end inside a frame. An error (a bad length
// or a payload wire.Decode refuses) ends the stream.
func (s *frameSplitter) next() (transport.NodeID, wire.Message, error) {
	var body []byte
	if s.big != nil {
		if len(s.big) < s.bigLen {
			return transport.NodeID{}, nil, nil
		}
		body, s.big = s.big, nil
		if cap(s.scratch) > maxRetainedReadBuf {
			s.scratch = nil
		}
	} else {
		if s.w-s.r < 4 {
			return transport.NodeID{}, nil, nil
		}
		frameLen := binary.BigEndian.Uint32(s.buf[s.r:])
		if frameLen < 9 || wire.FrameLen(int(frameLen)-9) > wire.MaxFrameLen {
			return transport.NodeID{}, nil, fmt.Errorf("tcp: bad frame length %d", frameLen)
		}
		end := s.r + 4 + int(frameLen)
		if end > s.w {
			if 4+int(frameLen) > len(s.buf) {
				s.collect(int(frameLen))
			}
			return transport.NodeID{}, nil, nil
		}
		body = s.buf[s.r+4 : end]
		if s.r = end; s.r == s.w {
			s.r, s.w = 0, 0
		}
	}
	from := transport.NodeID{
		DC:   int(int32(binary.BigEndian.Uint32(body[1:5]))),
		Node: int(int32(binary.BigEndian.Uint32(body[5:9]))),
	}
	msg, err := wire.Decode(wire.Kind(body[0]), body[9:])
	if err != nil {
		return transport.NodeID{}, nil, err
	}
	return from, msg, nil
}

// collect moves the partial frame at buf[r:w], whose body is frameLen
// bytes, into big: into the retained scratch when it is large enough, else
// into a fresh one of twice its capacity (two read buffers at least),
// capped at frameLen, which space keeps doubling as the frame arrives.
func (s *frameSplitter) collect(frameLen int) {
	have := s.buf[s.r+4 : s.w]
	if cap(s.scratch) < frameLen {
		s.scratch = make([]byte, 0, min(frameLen, max(2*cap(s.scratch), 2*len(s.buf))))
	}
	s.big = append(s.scratch[:0], have...)
	s.bigLen = frameLen
	s.r, s.w = 0, 0
}
