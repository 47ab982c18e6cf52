// Package chaos wraps any transport.Network with deterministic fault
// injection: per-link message drop, delay, duplication and reordering,
// plus directed DC-to-DC partitions that hold traffic losslessly until
// healed. It composes over both the in-process simulator and the TCP
// transport, and rules are togglable at runtime so a test can cut a WAN
// link in the middle of a 2PC and heal it later.
//
// Faults are decided by a single seeded PRNG at Send time, so a
// single-threaded test replays the same fault sequence for the same seed.
// Duplicated messages are delivered as deep clones (re-encoded and
// decoded with copy semantics), never as a second reference to the same
// pointer — several handlers return messages to sync.Pools after use.
package chaos

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wren/internal/transport"
	"wren/internal/wire"
)

// Rule describes the fault mix applied to messages sent over a matching
// link. The zero Rule injects nothing.
type Rule struct {
	// DropProb is the probability in [0,1] that a message is silently
	// dropped at send time.
	DropProb float64
	// DupProb is the probability that a message is delivered twice; the
	// second copy is a deep clone scheduled independently.
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
}

func (r Rule) isZero() bool { return r == Rule{} }

// Stats counts injected faults since the network was created.
type Stats struct {
	Sent       uint64 // messages offered to Send (excluding after close)
	Dropped    uint64 // messages silently discarded
	Duplicated uint64 // extra copies injected
	Reordered  uint64 // messages pushed behind their send order
	Held       uint64 // messages queued behind a cut link
	Delivered  uint64 // messages handed to the inner network
}

// Network is a transport.Network that forwards to an inner network
// through per-link fault schedulers.
type Network struct {
	inner transport.Network

	mu       sync.Mutex
	rng      *rand.Rand
	def      Rule
	dcRules  map[[2]int]Rule               // keyed (fromDC, toDC)
	cliRules map[int]Rule                  // keyed by the client endpoint's DC
	links    map[[2]transport.NodeID]*link // only links that ever matched a rule/cut
	cuts     map[[2]int]bool               // directed (fromDC, toDC)
	healGen  chan struct{}                 // closed and replaced on every Heal
	closed   bool

	sent, dropped, duplicated, reordered, held, delivered atomic.Uint64
}

// New wraps inner with fault injection. All faults derive from seed.
func New(inner transport.Network, seed int64) *Network {
	return &Network{
		inner:    inner,
		rng:      rand.New(rand.NewSource(seed)),
		dcRules:  make(map[[2]int]Rule),
		cliRules: make(map[int]Rule),
		links:    make(map[[2]transport.NodeID]*link),
		cuts:     make(map[[2]int]bool),
		healGen:  make(chan struct{}),
	}
}

// Inner returns the wrapped network.
func (n *Network) Inner() transport.Network { return n.inner }

// Register implements transport.Network by delegating to the inner
// network; handlers are always installed there.
func (n *Network) Register(id transport.NodeID, h transport.Handler) {
	n.inner.Register(id, h)
}

// SetDefaultRule applies r to every link without a more specific rule.
func (n *Network) SetDefaultRule(r Rule) {
	n.mu.Lock()
	n.def = r
	n.mu.Unlock()
}

// SetDCRule applies r to messages flowing fromDC -> toDC (directed).
func (n *Network) SetDCRule(fromDC, toDC int, r Rule) {
	n.mu.Lock()
	n.dcRules[[2]int{fromDC, toDC}] = r
	n.mu.Unlock()
}

// SetClientRule applies r to links where either endpoint is a client in
// the given DC (both request and response directions). It takes
// precedence over DC rules, so tests can stress the client edge without
// touching server-to-server replication.
func (n *Network) SetClientRule(dc int, r Rule) {
	n.mu.Lock()
	n.cliRules[dc] = r
	n.mu.Unlock()
}

// ClearRules removes every rule (default included). Messages already
// scheduled keep their delivery times; cuts are unaffected.
func (n *Network) ClearRules() {
	n.mu.Lock()
	n.def = Rule{}
	n.dcRules = make(map[[2]int]Rule)
	n.cliRules = make(map[int]Rule)
	n.mu.Unlock()
}

// Cut holds all traffic flowing fromDC -> toDC (directed, lossless) until
// Heal. Cutting both directions partitions the DC pair completely.
func (n *Network) Cut(fromDC, toDC int) {
	n.mu.Lock()
	n.cuts[[2]int{fromDC, toDC}] = true
	n.mu.Unlock()
}

// Heal releases a directed cut; held messages resume in order.
func (n *Network) Heal(fromDC, toDC int) {
	n.mu.Lock()
	delete(n.cuts, [2]int{fromDC, toDC})
	// Rotate the heal generation so links parked on the old channel wake.
	close(n.healGen)
	n.healGen = make(chan struct{})
	n.mu.Unlock()
}

// HealAll releases every directed cut.
func (n *Network) HealAll() {
	n.mu.Lock()
	n.cuts = make(map[[2]int]bool)
	close(n.healGen)
	n.healGen = make(chan struct{})
	n.mu.Unlock()
}

// Stats returns a snapshot of the fault counters.
func (n *Network) Stats() Stats {
	return Stats{
		Sent:       n.sent.Load(),
		Dropped:    n.dropped.Load(),
		Duplicated: n.duplicated.Load(),
		Reordered:  n.reordered.Load(),
		Held:       n.held.Load(),
		Delivered:  n.delivered.Load(),
	}
}

// ruleFor resolves the rule for a (from, to) pair. Precedence: client
// rule (either endpoint a client) > DC rule > default. Callers hold n.mu.
func (n *Network) ruleFor(from, to transport.NodeID) Rule {
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

// Send implements transport.Network. Messages on links with no active
// rule, cut, or backlog pass straight through to the inner network.
func (n *Network) Send(from, to transport.NodeID, m wire.Message) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return transport.ErrClosed
	}
	n.sent.Add(1)
	rule := n.ruleFor(from, to)
	cut := n.cuts[[2]int{from.DC, to.DC}]
	key := [2]transport.NodeID{from, to}
	l := n.links[key]
	if rule.isZero() && !cut && (l == nil || l.idle()) {
		// Fast path — but never overtake messages still queued on a link
		// created by an earlier rule or cut (FIFO per link is preserved).
		n.mu.Unlock()
		return n.inner.Send(from, to, m)
	}
	if rule.DropProb > 0 && n.rng.Float64() < rule.DropProb {
		n.mu.Unlock()
		n.dropped.Add(1)
		return nil
	}
	if l == nil {
		l = newLink(n, from, to)
		n.links[key] = l
	}
	at := time.Now().Add(n.scheduleLocked(rule))
	var dupAt time.Time
	if rule.DupProb > 0 && n.rng.Float64() < rule.DupProb {
		dupAt = time.Now().Add(n.scheduleLocked(rule))
	}
	n.mu.Unlock()

	// Clone before the original is handed over: once enqueued it can be
	// delivered, and a pooled message recycled by its receiver, at any time.
	var dup wire.Message
	if !dupAt.IsZero() {
		dup = cloneMessage(m)
	}
	l.enqueue(m, at)
	if dup != nil {
		n.duplicated.Add(1)
		l.enqueue(dup, dupAt)
	}
	return nil
}

// scheduleLocked computes the injected latency for one delivery under
// rule. Caller holds n.mu (the PRNG is not otherwise synchronized).
func (n *Network) scheduleLocked(rule Rule) time.Duration {
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
		n.reordered.Add(1)
	}
	return d
}

// Close stops all links and closes the inner network.
func (n *Network) Close() {
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
	n.inner.Close()
}

// isCut reports whether the directed DC pair is currently cut, returning
// the heal channel to wait on when it is.
func (n *Network) isCut(fromDC, toDC int) (bool, chan struct{}) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cuts[[2]int{fromDC, toDC}], n.healGen
}

// cloneMessage deep-copies m via an encode/decode round trip so a
// duplicate delivery never shares pooled state with the original.
func cloneMessage(m wire.Message) wire.Message {
	c, err := wire.Decode(m.Kind(), wire.Encode(m))
	if err != nil {
		return nil
	}
	return c
}

type entry struct {
	at  time.Time
	seq uint64
	m   wire.Message
}

// link schedules deliveries for one (from, to) pair. The queue is kept
// sorted by (at, seq): delivery order follows scheduled time, which is
// what lets a delayed message be overtaken by a later undelayed one.
type link struct {
	n        *Network
	from, to transport.NodeID

	mu     sync.Mutex
	q      []entry
	seq    uint64
	closed bool
	notify chan struct{}
	done   chan struct{}
}

func newLink(n *Network, from, to transport.NodeID) *link {
	l := &link{
		n:      n,
		from:   from,
		to:     to,
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	go l.run()
	return l
}

func (l *link) idle() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.q) == 0
}

func (l *link) enqueue(m wire.Message, at time.Time) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.seq++
	e := entry{at: at, seq: l.seq, m: m}
	i := sort.Search(len(l.q), func(i int) bool {
		if l.q[i].at.Equal(e.at) {
			return l.q[i].seq > e.seq
		}
		return l.q[i].at.After(e.at)
	})
	l.q = append(l.q, entry{})
	copy(l.q[i+1:], l.q[i:])
	l.q[i] = e
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
				// An earlier-scheduled entry may have arrived; re-read.
				t.Stop()
				continue
			case <-l.done:
				t.Stop()
				return
			}
		}

		if cut, heal := l.n.isCut(l.from.DC, l.to.DC); cut {
			l.n.held.Add(1)
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
		e := l.q[0]
		copy(l.q, l.q[1:])
		l.q = l.q[:len(l.q)-1]
		l.mu.Unlock()

		l.n.delivered.Add(1)
		_ = l.n.inner.Send(l.from, l.to, e.m)
	}
}
