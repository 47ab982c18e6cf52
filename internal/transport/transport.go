// Package transport provides the messaging substrate used by Wren and Cure
// servers: point-to-point, lossless, FIFO channels (the paper's §II-A
// assumption), and per-class byte accounting from real encoded message
// sizes (the input to Figure 7a).
//
// Memory is the one in-process network. It owns everything a simulated
// deployment's network does: a configurable latency model for a multi-DC
// deployment, directed DC cuts that hold traffic losslessly until healed,
// and seeded fault rules (drop, duplicate, delay, reorder) that break the
// channel assumption on purpose, togglable at runtime so a test can cut a
// WAN link in the middle of a 2PC and heal it later. Each (sender,
// receiver) pair's messages go through one time-ordered queue drained by
// one goroutine, so with no rule delivery order is send order, exactly
// like a TCP connection. Every delivery is decoded from the message's
// encoding, so the codec runs on every in-process hop as it does over
// TCP (transport/tcp). Faults come from one seeded PRNG drawn at Send
// time, so a single-threaded test replays the same faults for a seed.
package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"wren/internal/obs"
	"wren/internal/wire"
)

// NodeID identifies a process in the deployment: a partition server
// (Node < ClientBase) or a client process (Node >= ClientBase), placed in a
// data center.
type NodeID struct {
	DC   int
	Node int
}

// ClientBase is the first Node number used for client processes; partition
// servers are numbered 0..N-1.
const ClientBase = 1 << 16

// ClientID builds the NodeID for the i-th client process of a DC.
func ClientID(dc, i int) NodeID { return NodeID{DC: dc, Node: ClientBase + i} }

// ServerID builds the NodeID for partition n of DC m.
func ServerID(dc, partition int) NodeID { return NodeID{DC: dc, Node: partition} }

// IsClient reports whether the node is a client process.
func (n NodeID) IsClient() bool { return n.Node >= ClientBase }

// String implements fmt.Stringer.
func (n NodeID) String() string {
	if n.IsClient() {
		return fmt.Sprintf("dc%d/client%d", n.DC, n.Node-ClientBase)
	}
	return fmt.Sprintf("dc%d/p%d", n.DC, n.Node)
}

// Handler receives messages delivered by the network. Implementations must
// not block for unbounded time: protocols that need to wait (e.g. Cure's
// blocking reads) park the request and reply asynchronously instead.
type Handler interface {
	HandleMessage(from NodeID, m wire.Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from NodeID, m wire.Message)

// HandleMessage implements Handler.
func (f HandlerFunc) HandleMessage(from NodeID, m wire.Message) { f(from, m) }

// Network abstracts message passing so that servers run unchanged over the
// in-memory simulator or real TCP sockets.
type Network interface {
	// Register installs the handler for a node. It must be called before
	// any message is sent to that node.
	Register(id NodeID, h Handler)
	// Send enqueues a message for asynchronous FIFO delivery.
	Send(from, to NodeID, m wire.Message) error
	// Close stops delivery and releases resources.
	Close()
}

// ErrClosed is returned by Send after the network is closed.
var ErrClosed = errors.New("transport: network closed")

// ErrUnknownNode is returned when sending to an unregistered node.
var ErrUnknownNode = errors.New("transport: unknown destination")

// ErrOverloaded is returned by Send when a transport's bounded outbound
// queue for the destination is full: the message is shed instead of
// blocking the caller (protocol handlers must never stall on a slow or
// dead link). Senders treat it as transient and retry with backoff.
var ErrOverloaded = errors.New("transport: outbound queue overloaded")

// ErrTimeout is returned by request/response helpers layered over a
// Network (the client connection pool) when no response arrived within
// the caller's deadline. The request may or may not have executed.
var ErrTimeout = errors.New("transport: request timed out")

// LatencyFunc returns the one-way delivery latency between two nodes.
type LatencyFunc func(from, to NodeID) time.Duration

// UniformLatency builds a LatencyFunc with one intra-DC latency and one
// inter-DC latency.
func UniformLatency(intraDC, interDC time.Duration) LatencyFunc {
	return func(from, to NodeID) time.Duration {
		if from.DC == to.DC {
			return intraDC
		}
		return interDC
	}
}

// MatrixLatency builds a LatencyFunc from a per-DC-pair one-way latency
// matrix; intraDC is used within a DC. Missing pairs fall back to def.
func MatrixLatency(intraDC time.Duration, m map[[2]int]time.Duration, def time.Duration) LatencyFunc {
	return func(from, to NodeID) time.Duration {
		if from.DC == to.DC {
			return intraDC
		}
		if d, ok := m[[2]int{from.DC, to.DC}]; ok {
			return d
		}
		if d, ok := m[[2]int{to.DC, from.DC}]; ok {
			return d
		}
		return def
	}
}

// AWSLatencies returns a one-way inter-DC latency matrix modeled on the
// paper's five EC2 regions, scaled by the given factor (1.0 = realistic;
// benchmarks use smaller factors to compress wall-clock time). Order:
// 0=Virginia, 1=Oregon, 2=Ireland, 3=Mumbai, 4=Sydney.
func AWSLatencies(scale float64) map[[2]int]time.Duration {
	ms := func(f float64) time.Duration {
		return time.Duration(f * scale * float64(time.Millisecond))
	}
	return map[[2]int]time.Duration{
		{0, 1}: ms(35), // Virginia-Oregon
		{0, 2}: ms(40), // Virginia-Ireland
		{0, 3}: ms(91), // Virginia-Mumbai
		{0, 4}: ms(98), // Virginia-Sydney
		{1, 2}: ms(62), // Oregon-Ireland
		{1, 3}: ms(109),
		{1, 4}: ms(70),
		{2, 3}: ms(61),
		{2, 4}: ms(134),
		{3, 4}: ms(111),
	}
}

const numClasses = int(wire.ClassControl) + 1

// Rule is the fault mix applied to messages sent over a matching link.
// The zero Rule injects nothing.
type Rule struct {
	// DropProb is the probability in [0,1] that a message is silently
	// dropped at send time.
	DropProb float64
	// DupProb is the probability that a message is delivered twice; the
	// second copy is decoded afresh and scheduled independently.
	DupProb float64
	// Delay postpones delivery by a fixed amount, plus a uniformly random
	// extra in [0, Jitter). Jitter alone is enough to reorder messages,
	// since delivery follows scheduled time, not send order.
	Delay  time.Duration
	Jitter time.Duration
	// ReorderProb is the probability a message is additionally pushed
	// ReorderWindow behind its scheduled delivery, letting messages sent
	// after it overtake. A zero ReorderWindow defaults to 1ms.
	ReorderProb   float64
	ReorderWindow time.Duration
	// Kind, when set, limits the rule to messages of that kind; the others
	// on the link pass as under the zero Rule.
	Kind wire.Kind
}

// Memory is the in-process Network implementation. Every delivery is
// wire.Decode of the message's encoding, so the sender keeps its message
// and the receiver owns a fresh one, as over TCP.
type Memory struct {
	latency LatencyFunc

	mu       sync.RWMutex
	handlers map[NodeID]Handler
	links    map[[2]NodeID]*link
	closed   bool

	// faultMu guards the fault rules, the cuts and the PRNG every fault
	// is drawn from.
	faultMu  sync.Mutex
	rng      *rand.Rand
	def      Rule
	dcRules  map[[2]int]Rule // keyed (fromDC, toDC)
	cliRules map[int]Rule    // keyed by the client endpoint's DC
	cuts     map[[2]int]bool // directed (fromDC, toDC)
	healGen  chan struct{}   // closed and replaced on every heal

	// reg counts the traffic of each wire.Class (index 0 is no class):
	// net.msgs.<class> and net.bytes.<class>, and net.inter_msgs.<class>
	// and net.inter_bytes.<class> for the subset crossing DC boundaries;
	// and the injected faults.
	reg                                  *obs.Registry
	msgs, bytes, interMsgs, interBytes   [numClasses]*obs.Counter
	dropped, duplicated, reordered, held *obs.Counter

	wg sync.WaitGroup
}

var _ Network = (*Memory)(nil)

// NewMemory builds an in-process network with the given latency model;
// every fault a rule injects is drawn from seed. A nil latency function
// means zero latency everywhere.
func NewMemory(latency LatencyFunc, seed int64) *Memory {
	if latency == nil {
		latency = func(NodeID, NodeID) time.Duration { return 0 }
	}
	n := &Memory{
		latency:  latency,
		handlers: make(map[NodeID]Handler),
		links:    make(map[[2]NodeID]*link),
		rng:      rand.New(rand.NewSource(seed)),
		dcRules:  make(map[[2]int]Rule),
		cliRules: make(map[int]Rule),
		cuts:     make(map[[2]int]bool),
		healGen:  make(chan struct{}),
		reg:      obs.New("net"),
	}
	for c := 1; c < numClasses; c++ {
		cls := wire.Class(c).String()
		n.msgs[c], n.bytes[c] = n.reg.Counter("net.msgs."+cls), n.reg.Counter("net.bytes."+cls)
		n.interMsgs[c], n.interBytes[c] = n.reg.Counter("net.inter_msgs."+cls), n.reg.Counter("net.inter_bytes."+cls)
	}
	n.dropped, n.duplicated = n.reg.Counter("net.dropped"), n.reg.Counter("net.duplicated")
	n.reordered, n.held = n.reg.Counter("net.reordered"), n.reg.Counter("net.held")
	return n
}

// Obs returns the network's registry: the per-class traffic counters,
// and net.dropped, net.duplicated (extra copies injected), net.reordered
// (pushed behind their send order) and net.held (a link parked behind a
// cut). A dropped message is not counted as traffic; a duplicate is
// counted twice.
func (n *Memory) Obs() *obs.Registry { return n.reg }

// Register implements Network.
func (n *Memory) Register(id NodeID, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handlers[id] = h
}

// SetDefaultRule applies r to every link without a more specific rule.
func (n *Memory) SetDefaultRule(r Rule) {
	n.faultMu.Lock()
	n.def = r
	n.faultMu.Unlock()
}

// SetDCRule applies r to messages flowing fromDC -> toDC (directed).
func (n *Memory) SetDCRule(fromDC, toDC int, r Rule) {
	n.faultMu.Lock()
	n.dcRules[[2]int{fromDC, toDC}] = r
	n.faultMu.Unlock()
}

// SetClientRule applies r to links where either endpoint is a client in
// the given DC (both request and response directions). It takes
// precedence over DC rules, so tests can stress the client edge without
// touching server-to-server replication.
func (n *Memory) SetClientRule(dc int, r Rule) {
	n.faultMu.Lock()
	n.cliRules[dc] = r
	n.faultMu.Unlock()
}

// ClearRules removes every rule (default included). Messages already
// scheduled keep their delivery times; cuts are unaffected.
func (n *Memory) ClearRules() {
	n.faultMu.Lock()
	n.def = Rule{}
	clear(n.dcRules)
	clear(n.cliRules)
	n.faultMu.Unlock()
}

// Cut holds all traffic flowing fromDC -> toDC (directed, lossless) until
// Heal: the paper's channels are lossless, like TCP with retries. Cutting
// both directions partitions the DC pair; Cut(dc, dc) cuts a DC off from
// itself.
func (n *Memory) Cut(fromDC, toDC int) {
	n.faultMu.Lock()
	n.cuts[[2]int{fromDC, toDC}] = true
	n.faultMu.Unlock()
}

// Heal releases a directed cut; held messages resume in order.
func (n *Memory) Heal(fromDC, toDC int) {
	n.faultMu.Lock()
	delete(n.cuts, [2]int{fromDC, toDC})
	n.wakeLocked()
	n.faultMu.Unlock()
}

// HealAll releases every directed cut.
func (n *Memory) HealAll() {
	n.faultMu.Lock()
	clear(n.cuts)
	n.wakeLocked()
	n.faultMu.Unlock()
}

// wakeLocked rotates the heal generation so links parked on the old
// channel wake. Caller holds faultMu.
func (n *Memory) wakeLocked() {
	close(n.healGen)
	n.healGen = make(chan struct{})
}

// isCut reports whether the directed DC pair is cut, returning the heal
// channel to wait on when it is.
func (n *Memory) isCut(fromDC, toDC int) (bool, chan struct{}) {
	n.faultMu.Lock()
	defer n.faultMu.Unlock()
	return n.cuts[[2]int{fromDC, toDC}], n.healGen
}

// ruleFor resolves the rule for a (from, to) pair. Precedence: client
// rule (either endpoint a client) > DC rule > default. Caller holds
// faultMu.
func (n *Memory) ruleFor(from, to NodeID) Rule {
	if from.IsClient() {
		if r, ok := n.cliRules[from.DC]; ok {
			return r
		}
	}
	if to.IsClient() {
		if r, ok := n.cliRules[to.DC]; ok {
			return r
		}
	}
	if r, ok := n.dcRules[[2]int{from.DC, to.DC}]; ok {
		return r
	}
	return n.def
}

// delayLocked draws the delay rule adds to one delivery. Caller holds
// faultMu (the PRNG is not otherwise synchronized).
func (n *Memory) delayLocked(rule Rule) time.Duration {
	d := rule.Delay
	if rule.Jitter > 0 {
		d += time.Duration(n.rng.Int63n(int64(rule.Jitter)))
	}
	if rule.ReorderProb > 0 && n.rng.Float64() < rule.ReorderProb {
		w := rule.ReorderWindow
		if w <= 0 {
			w = time.Millisecond
		}
		d += w
		n.reordered.Inc()
	}
	return d
}

// encPool recycles Send's encoders: nothing Decode returns aliases the
// payload, so the buffer is free again once Send returns.
var encPool = sync.Pool{New: func() any { return wire.NewEncoder() }}

// Send implements Network. The message is encoded once and each delivery
// is a decode of those bytes; a message that does not round-trip, or
// whose Size is over wire.MaxFrameLen, is an error naming its kind. A
// delivery is scheduled on the (from, to) link at now + latency + the
// link rule's delay, and waits there while its DC pair is cut. With no rule the schedule never goes backwards on a link,
// so delivery order is send order, exactly like a TCP connection.
func (n *Memory) Send(from, to NodeID, m wire.Message) error {
	n.mu.RLock()
	if n.closed {
		n.mu.RUnlock()
		return ErrClosed
	}
	if _, ok := n.handlers[to]; !ok {
		n.mu.RUnlock()
		return fmt.Errorf("%w: %v", ErrUnknownNode, to)
	}
	l := n.links[[2]NodeID{from, to}]
	n.mu.RUnlock()
	if l == nil {
		if l = n.getOrCreateLink(from, to); l == nil {
			return ErrClosed
		}
	}

	enc := encPool.Get().(*wire.Encoder)
	defer func() {
		enc.Reset()
		encPool.Put(enc)
	}()
	wire.EncodeInto(enc, m)
	if size := wire.FrameLen(enc.Len()); size > wire.MaxFrameLen {
		return fmt.Errorf("transport: %w: %v of %d bytes", wire.ErrFrameTooLarge, m.Kind(), size)
	}
	c, err := wire.Decode(m.Kind(), enc.Bytes())
	if err != nil {
		return fmt.Errorf("transport: %v does not round-trip: %w", m.Kind(), err)
	}

	n.faultMu.Lock()
	rule := n.ruleFor(from, to)
	if rule.Kind != 0 && rule.Kind != m.Kind() {
		rule = Rule{}
	}
	if rule.DropProb > 0 && n.rng.Float64() < rule.DropProb {
		n.faultMu.Unlock()
		n.dropped.Inc()
		return nil
	}
	delay, dup, dupDelay := n.delayLocked(rule), false, time.Duration(0)
	if rule.DupProb > 0 && n.rng.Float64() < rule.DupProb {
		dup, dupDelay = true, n.delayLocked(rule)
	}
	n.faultMu.Unlock()

	due, cls, sz := time.Now().Add(n.latency(from, to)), m.Class(), uint64(wire.Size(m))
	n.count(from, to, cls, sz)
	l.enqueue(c, due.Add(delay))
	if dup {
		c, _ = wire.Decode(m.Kind(), enc.Bytes()) // these bytes decoded once already
		n.duplicated.Inc()
		n.count(from, to, cls, sz)
		l.enqueue(c, due.Add(dupDelay))
	}
	return nil
}

// count adds one message of sz bytes to the traffic counters; loopback
// traffic is not network traffic.
func (n *Memory) count(from, to NodeID, cls wire.Class, sz uint64) {
	if from == to {
		return
	}
	n.msgs[cls].Inc()
	n.bytes[cls].Add(sz)
	if from.DC != to.DC {
		n.interMsgs[cls].Inc()
		n.interBytes[cls].Add(sz)
	}
}

func (n *Memory) getOrCreateLink(from, to NodeID) *link {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil
	}
	key := [2]NodeID{from, to}
	if l, ok := n.links[key]; ok {
		return l
	}
	l := &link{net: n, from: from, to: to, notify: make(chan struct{}, 1), done: make(chan struct{})}
	n.links[key] = l
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		l.run()
	}()
	return l
}

// Close implements Network. It stops all delivery goroutines and waits for
// them to exit; undelivered messages are dropped.
func (n *Memory) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	links := make([]*link, 0, len(n.links))
	for _, l := range n.links {
		links = append(links, l)
	}
	n.mu.Unlock()

	for _, l := range links {
		l.close()
	}
	n.wg.Wait()
}

type delivery struct {
	at  time.Time
	msg wire.Message
}

// link is the delivery queue of one (from, to) pair, kept sorted by
// scheduled time (equal times in enqueue order) and drained by a single
// goroutine: delivery follows scheduled time, which is send order unless
// a rule delayed a message.
type link struct {
	net      *Memory
	from, to NodeID

	mu     sync.Mutex
	q      []delivery
	closed bool
	notify chan struct{} // capacity 1: send-side kick
	done   chan struct{}
}

func (l *link) enqueue(m wire.Message, at time.Time) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	// Scan from the tail: without a rule every delivery lands there.
	i := len(l.q)
	for i > 0 && l.q[i-1].at.After(at) {
		i--
	}
	l.q = slices.Insert(l.q, i, delivery{at: at, msg: m})
	l.mu.Unlock()
	select {
	case l.notify <- struct{}{}:
	default:
	}
}

func (l *link) close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.q = nil
	l.mu.Unlock()
	close(l.done)
}

func (l *link) run() {
	for {
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return
		}
		if len(l.q) == 0 {
			l.mu.Unlock()
			select {
			case <-l.notify:
			case <-l.done:
				return
			}
			continue
		}
		head := l.q[0]
		l.mu.Unlock()

		if wait := time.Until(head.at); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-l.notify:
				// An earlier-scheduled delivery may have arrived; re-read.
				t.Stop()
				continue
			case <-l.done:
				t.Stop()
				return
			}
		}

		if cut, heal := l.net.isCut(l.from.DC, l.to.DC); cut {
			l.net.held.Inc()
			select {
			case <-heal:
			case <-l.done:
				return
			}
			continue
		}

		l.mu.Lock()
		if l.closed || len(l.q) == 0 {
			l.mu.Unlock()
			continue
		}
		d := l.q[0]
		l.q[0] = delivery{}
		l.q = l.q[1:]
		l.mu.Unlock()

		l.net.mu.RLock()
		h := l.net.handlers[l.to]
		l.net.mu.RUnlock()
		if h != nil {
			h.HandleMessage(l.from, d.msg)
		}
	}
}
