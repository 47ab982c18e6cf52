// Package pool multiplexes many client sessions over a small fixed set of
// transport endpoints. Without it every session registers its own NodeID
// on the network — over TCP that is one socket per server per session, and
// over the in-memory simulator one delivery goroutine and one latency
// timer stream per session — so at thousands of sessions the bottleneck is
// the connection fabric, not the protocol.
//
// A Pool owns N endpoints (NodeIDs registered on a Network) and hands out
// lightweight Conns via Bind. Sessions issue request/response round trips
// through Conn.Call; the pool allocates a pool-unique request id, tags the
// outgoing message with it (via the caller's build closure), and
// demultiplexes responses with the same claim-once discipline as the
// server read fan-in (package fanin): a striped pending map whose
// LoadAndDelete guarantees each response is matched to exactly one waiting
// call — a late, duplicated, or shed response finds no entry and is
// dropped, never delivered to another session.
//
// Pipelining and ordering: many sessions' requests are in flight on one
// endpoint concurrently (that is the pipelining), but each Conn is pinned
// to ONE endpoint at Bind time. Transports deliver FIFO per (from, to)
// pair, so a session's requests arrive at a given server in issue order.
// Combined with the sessions' sequential API — a session does not issue
// its commit until its reads have returned and updated its causal state —
// this preserves the per-session ordering the protocol needs: a commit can
// never overtake the session's own reads.
package pool

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wren/internal/obs"
	"wren/internal/stripemap"
	"wren/internal/transport"
	"wren/internal/wire"
)

// Endpoint is one multiplexed link: a NodeID the pool registers on a
// Network. Over TCP each endpoint is its own tcp.Network (one socket per
// server); over the in-memory simulator endpoints share one Memory.
type Endpoint struct {
	ID  transport.NodeID
	Net transport.Network
}

// Pool is the shared connection pool. Safe for concurrent use by any
// number of sessions.
type Pool struct {
	eps     []Endpoint
	pending *stripemap.Map[chan wire.Message]
	reqSeq  atomic.Uint64
	bindSeq atomic.Uint64
	closed  atomic.Bool

	reg                      *obs.Registry
	calls, timeouts, orphans *obs.Counter
}

// Stats is a snapshot of the pool's demux counters (in its registry as
// pool.calls, pool.timeouts and pool.orphans).
type Stats struct {
	// Calls counts requests successfully handed to a transport.
	Calls uint64
	// Timeouts counts calls that gave up before a response arrived.
	Timeouts uint64
	// Orphans counts responses that matched no waiting call: late
	// responses whose caller timed out, or chaos-duplicated deliveries.
	// Each was dropped, never delivered to another session.
	Orphans uint64
}

// waiterPool recycles the 1-buffered response channels. A channel is only
// returned when it provably has no pending writer (see Call).
var waiterPool = sync.Pool{New: func() any { return make(chan wire.Message, 1) }}

// timerPool recycles the per-call timeout timers. A timer goes back either
// stopped or fired-and-received; with the module's Go version neither can
// deliver a stale tick after the next Reset.
var timerPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}}

// New builds a pool over the given endpoints and registers its response
// handler on each. Endpoints must not be registered elsewhere.
func New(eps []Endpoint) (*Pool, error) {
	if len(eps) == 0 {
		return nil, fmt.Errorf("pool: no endpoints")
	}
	reg := obs.New("pool")
	p := &Pool{
		eps:      eps,
		pending:  stripemap.New[chan wire.Message](0),
		reg:      reg,
		calls:    reg.Counter("pool.calls"),
		timeouts: reg.Counter("pool.timeouts"),
		orphans:  reg.Counter("pool.orphans"),
	}
	for _, ep := range eps {
		ep.Net.Register(ep.ID, p)
	}
	return p, nil
}

// Conn is a session's handle on the pool: an endpoint affinity plus the
// shared demux state. Conns are cheap; one per session.
type Conn struct {
	p  *Pool
	ep Endpoint
}

// Bind returns a Conn pinned round-robin to one of the pool's endpoints.
// The pin is what preserves per-session FIFO ordering (see package doc).
func (p *Pool) Bind() *Conn {
	i := p.bindSeq.Add(1)
	return &Conn{p: p, ep: p.eps[int(i)%len(p.eps)]}
}

// Call performs one request/response round trip over the session's pinned
// endpoint. build receives the pool-allocated request id and returns the
// message to send; the id must be echoed by the server in the response's
// ReqID field. Errors: the transport Send error verbatim (including
// transport.ErrOverloaded from a full TCP writer queue),
// transport.ErrClosed after Close, or transport.ErrTimeout when no
// response arrived within timeout.
func (c *Conn) Call(to transport.NodeID, timeout time.Duration, build func(reqID uint64) wire.Message) (wire.Message, error) {
	p := c.p
	if p.closed.Load() {
		return nil, transport.ErrClosed
	}
	reqID := p.reqSeq.Add(1)
	ch := waiterPool.Get().(chan wire.Message)
	p.pending.Store(reqID, ch)
	if err := c.ep.Net.Send(c.ep.ID, to, build(reqID)); err != nil {
		// Nothing was sent, so nothing can ever be delivered: the entry
		// and the channel are both safely reclaimed here.
		p.pending.Delete(reqID)
		waiterPool.Put(ch)
		return nil, err
	}
	p.calls.Add(1)
	timer := timerPool.Get().(*time.Timer)
	timer.Reset(timeout)
	select {
	case resp := <-ch:
		timer.Stop()
		timerPool.Put(timer)
		waiterPool.Put(ch)
		return resp, nil
	case <-timer.C:
		timerPool.Put(timer)
		p.timeouts.Add(1)
		if _, ok := p.pending.LoadAndDelete(reqID); ok {
			// We won the race against the demux handler: no writer can
			// reach the channel anymore, so it is reusable.
			waiterPool.Put(ch)
			return nil, fmt.Errorf("%w (to %v after %v)", transport.ErrTimeout, to, timeout)
		}
		// The handler claimed the entry concurrently and will (or already
		// did) deposit the response. Drain it if it is already there —
		// then the channel is empty and reusable; otherwise abandon both
		// to the GC rather than risk a stale delivery into a reused slot.
		select {
		case m := <-ch:
			releaseOrphan(m)
			waiterPool.Put(ch)
		default:
		}
		return nil, fmt.Errorf("%w (to %v after %v)", transport.ErrTimeout, to, timeout)
	}
}

// HandleMessage implements transport.Handler: the demux side. Exactly-once
// matching comes from LoadAndDelete — the first delivery for a request id
// claims the waiter, every other delivery is an orphan and is dropped.
func (p *Pool) HandleMessage(_ transport.NodeID, m wire.Message) {
	reqID, ok := responseReqID(m)
	if !ok {
		return
	}
	ch, ok := p.pending.LoadAndDelete(reqID)
	if !ok {
		p.orphans.Add(1)
		releaseOrphan(m)
		return
	}
	ch <- m
}

// releaseOrphan returns an unclaimed pooled response to its pool. Safe:
// an orphan has exactly one owner (us) — a timed-out caller never touches
// responses, and chaos duplicates are deep re-encoded clones, so the
// pointer can never also be in a session's hands.
func releaseOrphan(m wire.Message) {
	if rr, ok := m.(*wire.TxReadResp); ok {
		wire.PutTxReadResp(rr)
	}
}

// responseReqID extracts the correlation id from the client-facing
// response kinds. Unknown kinds (server-to-server traffic misdelivered to
// a pool endpoint) report false and are dropped.
func responseReqID(m wire.Message) (uint64, bool) {
	switch msg := m.(type) {
	case *wire.StartTxResp:
		return msg.ReqID, true
	case *wire.TxReadResp:
		return msg.ReqID, true
	case *wire.CommitResp:
		return msg.ReqID, true
	case *wire.ScanResp:
		return msg.ReqID, true
	case *wire.TxStatusResp:
		return msg.ReqID, true
	case *wire.HealthResp:
		return msg.ReqID, true
	case *wire.BusyResp:
		return msg.ReqID, true
	}
	return 0, false
}

// Obs returns the pool's metrics registry.
func (p *Pool) Obs() *obs.Registry { return p.reg }

// Stats snapshots the demux counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Calls:    p.calls.Load(),
		Timeouts: p.timeouts.Load(),
		Orphans:  p.orphans.Load(),
	}
}

// Pending returns the number of in-flight calls, for tests asserting that
// a drained workload leaks no demux state.
func (p *Pool) Pending() int { return p.pending.Len() }

// Close marks the pool closed: new Calls fail with transport.ErrClosed,
// in-flight calls time out naturally. The endpoints' networks are NOT
// closed — the pool does not own them (over the in-memory simulator the
// Network is shared with the servers). Callers that built dedicated
// networks per endpoint (the TCP helper) close those themselves.
func (p *Pool) Close() {
	p.closed.Store(true)
}
