package main

// Tracing from outside. The program has two seams every message and every
// client round trip crosses — transport.Network and core.Conn — and the
// traced pass wraps both. traceNet stamps a message when it is handed to the
// transport and again when the receiving node's handler is entered (transit:
// encode, socket, decode and waiting), and times the handler itself;
// traceConn times each pooled round trip of a session. Spans go to a
// preallocated buffer and are written out after the run; sums per span name
// are kept for every span, also those past the end of the buffer.

import (
	"bufio"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wren/internal/core"
	"wren/internal/transport"
	"wren/internal/wire"
)

const (
	numKinds   = int(wire.KindBusyResp) + 1
	numClasses = int(wire.ClassControl) + 1
	// spanCap bounds the span buffer: about two seconds of read_mem, enough
	// to follow individual transactions; the sums cover the whole window.
	spanCap = 1 << 17
)

// Span names: four fixed client spans, then one block per message kind for
// pooled calls, transit and server handling.
const (
	nameTx = iota
	nameBegin
	nameRead
	nameCommit
	nameScan
	namePoolCall
	nameTransit = namePoolCall + numKinds
	nameHandle  = nameTransit + numKinds
	numNames    = nameHandle + numKinds
)

func spanName(n int) string {
	switch {
	case n >= nameHandle:
		return "server.handle." + wire.Kind(n-nameHandle).String()
	case n >= nameTransit:
		return "net.transit." + wire.Kind(n-nameTransit).String()
	case n >= namePoolCall:
		return "pool.call." + wire.Kind(n-namePoolCall).String()
	}
	return [...]string{"tx", "client.begin", "client.read", "client.commit", "client.scan"}[n]
}

// span is one timed interval. parent is the 1-based buffer position of the
// span that caused it (0 = not known from outside); id is the transaction id
// where the message carries one and the request id otherwise, so the spans
// of one transaction can be joined.
type span struct {
	name       int32
	parent     int32
	start, end int64 // ns since the harness epoch
	id         uint64
}

type tracer struct {
	on atomic.Bool

	spans []span
	next  atomic.Int64

	count [numNames]atomic.Int64
	sumNS [numNames]atomic.Int64

	msgs  [numClasses]atomic.Int64
	bytes [numClasses]atomic.Int64
	// busyNS is the time connection readers spent inside server handlers:
	// while a reader is in a handler the next message on its socket waits.
	busyNS atomic.Int64

	mu    sync.RWMutex
	pairs map[[2]transport.NodeID]*stampQueue
}

func newTracer() *tracer {
	return &tracer{spans: make([]span, spanCap), pairs: make(map[[2]transport.NodeID]*stampQueue)}
}

// reserve claims n consecutive buffer positions and returns the first, or 0
// when the buffer is full. Positions are claimed before the interval ends so
// that children can name their parent.
func (t *tracer) reserve(n int) int32 {
	end := t.next.Add(int64(n))
	if end > spanCap {
		return 0
	}
	return int32(end) - int32(n) + 1
}

// record adds an interval to its name's sums and, when pos is a claimed
// position, stores the span.
func (t *tracer) record(pos int32, name int, start, end int64, parent int32, id uint64) {
	t.count[name].Add(1)
	t.sumNS[name].Add(end - start)
	if pos > 0 {
		t.spans[pos-1] = span{name: int32(name), parent: parent, start: start, end: end, id: id}
	}
}

// meanUS is the mean duration of a span name in microseconds.
func (t *tracer) meanUS(name int) float64 {
	if n := t.count[name].Load(); n > 0 {
		return float64(t.sumNS[name].Load()) / float64(n) / 1e3
	}
	return 0
}

// writeSpans dumps the buffer as one JSON object per line inside an array.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	n := min(t.next.Load(), spanCap)
	w.WriteString("[\n")
	first := true
	var b []byte
	for i := int64(0); i < n; i++ {
		s := &t.spans[i]
		if s.end == 0 { // claimed but never finished
			continue
		}
		b = b[:0]
		if !first {
			b = append(b, ",\n"...)
		}
		first = false
		b = append(b, `{"span":`...)
		b = strconv.AppendInt(b, i+1, 10)
		b = append(b, `,"name":"`...)
		b = append(b, spanName(int(s.name))...)
		b = append(b, `","start":`...)
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, `,"end":`...)
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, int64(s.parent), 10)
		b = append(b, `,"id":`...)
		b = strconv.AppendUint(b, s.id, 10)
		b = append(b, '}')
		w.Write(b)
	}
	w.WriteString("\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// msgID is the identifier that ties a message to its transaction or request.
func msgID(m wire.Message) uint64 {
	switch m := m.(type) {
	case *wire.StartTxReq:
		return m.ReqID
	case *wire.StartTxResp:
		return m.TxID
	case *wire.TxReadReq:
		return m.TxID
	case *wire.TxReadResp:
		return m.ReqID
	case *wire.CommitReq:
		return m.TxID
	case *wire.CommitResp:
		return m.ReqID
	case *wire.SliceReq:
		return m.ReqID
	case *wire.SliceResp:
		return m.ReqID
	case *wire.PrepareReq:
		return m.TxID
	case *wire.PrepareResp:
		return m.TxID
	case *wire.CommitTx:
		return m.TxID
	case *wire.CommitAck:
		return m.TxID
	case *wire.ScanReq:
		return m.ReqID
	case *wire.ScanResp:
		return m.ReqID
	}
	return 0
}

// stamp remembers when a message was handed to the transport.
type stamp struct {
	t    int64
	kind wire.Kind // 0 = already taken
	id   uint64
}

// stampQueue holds the stamps of one (from, to) pair in send order. The
// transports deliver a pair's messages in FIFO order, so the head normally
// matches; two goroutines sending on one pair can stamp in the opposite
// order to their writes, which is why take looks a few entries past the head
// and matches on kind and id.
type stampQueue struct {
	mu   sync.Mutex
	q    []stamp
	head int
}

func (s *stampQueue) push(st stamp) {
	s.mu.Lock()
	if s.head > 1024 && s.head > len(s.q)/2 {
		s.q = s.q[:copy(s.q, s.q[s.head:])]
		s.head = 0
	}
	if len(s.q)-s.head > 1<<14 { // receiver never takes: forget, keep memory bounded
		s.q, s.head = s.q[:0], 0
	}
	s.q = append(s.q, st)
	s.mu.Unlock()
}

func (s *stampQueue) take(kind wire.Kind, id uint64) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := s.head; i < len(s.q) && i < s.head+16; i++ {
		if s.q[i].kind == kind && s.q[i].id == id {
			t := s.q[i].t
			s.q[i].kind = 0
			for s.head < len(s.q) && s.q[s.head].kind == 0 {
				s.head++
			}
			return t, true
		}
	}
	return 0, false
}

// untake removes the newest stamp of a message whose Send failed.
func (s *stampQueue) untake(kind wire.Kind, id uint64) {
	s.mu.Lock()
	for i := len(s.q) - 1; i >= s.head; i-- {
		if s.q[i].kind == kind && s.q[i].id == id {
			s.q[i].kind = 0
			break
		}
	}
	s.mu.Unlock()
}

func (t *tracer) pair(from, to transport.NodeID) *stampQueue {
	key := [2]transport.NodeID{from, to}
	t.mu.RLock()
	q := t.pairs[key]
	t.mu.RUnlock()
	if q != nil {
		return q
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if q = t.pairs[key]; q == nil {
		q = &stampQueue{}
		t.pairs[key] = q
	}
	return q
}

// wrapNet returns n itself when tracing is off for the whole run.
func (t *tracer) wrapNet(n transport.Network) transport.Network {
	if t == nil {
		return n
	}
	return &traceNet{inner: n, tr: t}
}

// traceNet wraps the network handed to one node.
type traceNet struct {
	inner transport.Network
	tr    *tracer
}

func (n *traceNet) Register(id transport.NodeID, h transport.Handler) {
	n.inner.Register(id, &traceHandler{inner: h, self: id, tr: n.tr})
}

func (n *traceNet) Send(from, to transport.NodeID, m wire.Message) error {
	if !n.tr.on.Load() || from == to {
		return n.inner.Send(from, to, m)
	}
	// Everything is read before forwarding: messages are pooled and may be
	// recycled as soon as the transport has encoded them.
	kind, class, id := m.Kind(), m.Class(), msgID(m)
	n.tr.msgs[class].Add(1)
	n.tr.bytes[class].Add(int64(wire.Size(m)))
	q := n.tr.pair(from, to)
	q.push(stamp{t: nowNS(), kind: kind, id: id})
	err := n.inner.Send(from, to, m)
	if err != nil {
		q.untake(kind, id)
	}
	return err
}

func (n *traceNet) Close() { n.inner.Close() }

type traceHandler struct {
	inner transport.Handler
	self  transport.NodeID
	tr    *tracer
}

func (h *traceHandler) HandleMessage(from transport.NodeID, m wire.Message) {
	if !h.tr.on.Load() {
		h.inner.HandleMessage(from, m)
		return
	}
	kind, id := m.Kind(), msgID(m)
	entered := nowNS()
	var transit int32
	// A message a server sends to itself never reaches a socket: the
	// transport calls the handler inside Send, so it has no transit.
	if from != h.self {
		if sent, ok := h.tr.pair(from, h.self).take(kind, id); ok && sent <= entered {
			transit = h.tr.reserve(1)
			h.tr.record(transit, nameTransit+int(kind), sent, entered, 0, id)
		}
	}
	h.inner.HandleMessage(from, m)
	// Client-side handlers are the pool's demultiplexer, not a server.
	if !h.self.IsClient() {
		left := nowNS()
		h.tr.record(h.tr.reserve(1), nameHandle+int(kind), entered, left, transit, id)
		if from != h.self {
			h.tr.busyNS.Add(left - entered)
		}
	}
}

// traceConn wraps one session's pooled connection. The session sets parent
// to the client span in progress before each client call.
type traceConn struct {
	inner  core.Conn
	tr     *tracer
	parent int32
}

func (c *traceConn) Call(to transport.NodeID, timeout time.Duration, build func(reqID uint64) wire.Message) (wire.Message, error) {
	if !c.tr.on.Load() {
		return c.inner.Call(to, timeout, build)
	}
	var kind wire.Kind
	var id uint64
	pos, start := c.tr.reserve(1), nowNS()
	resp, err := c.inner.Call(to, timeout, func(reqID uint64) wire.Message {
		m := build(reqID)
		kind, id = m.Kind(), msgID(m)
		return m
	})
	c.tr.record(pos, namePoolCall+int(kind), start, nowNS(), c.parent, id)
	return resp, err
}
