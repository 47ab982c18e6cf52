// Package obs holds a server's counters and lifecycle events: a registry
// of named counters and gauges, and one event log.
//
// One registry per server. A partition server's runtime creates it, and
// the protocol, the storage engine and the transaction log register into
// that one instance, so its snapshot is everything the server counts. Each
// transport endpoint (the in-process network, a TCP endpoint, a client
// pool, the chaos wrapper) keeps a registry of its own.
//
// The read-path rule: an owner looks a counter up once, when it is built,
// and keeps the pointer; a request only calls Inc or Add on it, an atomic
// add with no lock and no map lookup. Counter, Func, Value and Snapshot
// take the registry's mutex and are for construction, tests and reports.
//
// Events are the transitions a server cannot report as a return value:
// durability degraded or restored, a torn log tail cleared, a failed
// close. The default sink writes each one to standard error as one line;
// tests Subscribe to a kind to observe it.
package obs

import (
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"

	"wren/internal/stats"
)

// Counter is a monotonically increasing count, safe for concurrent use.
type Counter = stats.Counter

// Registry is a named set of counters and gauges.
type Registry struct {
	source string // names the owner in every event this registry emits

	mu       sync.Mutex
	reads    map[string]func() uint64
	counters map[string]*Counter
}

// New returns an empty registry whose events name source, e.g. "core
// dc0/p1".
func New(source string) *Registry {
	return &Registry{source: source, reads: make(map[string]func() uint64), counters: make(map[string]*Counter)}
}

// Counter returns the counter registered under name, creating it on first
// use, so two owners asking for one name share it.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = new(Counter)
		r.counters[name], r.reads[name] = c, c.Load
	}
	return c
}

// Func registers a value read when it is asked for: a gauge, or a counter
// its owner keeps itself.
func (r *Registry) Func(name string, read func() uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reads[name] = read
}

// Value returns the current value of one entry. A name never registered is
// a caller's bug, not a zero: it panics.
func (r *Registry) Value(name string) uint64 {
	r.mu.Lock()
	read := r.reads[name]
	r.mu.Unlock()
	if read == nil {
		panic("obs: no entry " + name)
	}
	return read()
}

// Sample is one entry's value in a snapshot.
type Sample struct {
	Name  string
	Value uint64
}

// Snapshot is every entry of a registry, sorted by name.
type Snapshot []Sample

// Snapshot reads every entry, each at its own moment: no lock is held
// across a read.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	s := make(Snapshot, 0, len(r.reads))
	for name := range r.reads {
		s = append(s, Sample{Name: name})
	}
	r.mu.Unlock()
	sort.Slice(s, func(i, j int) bool { return s[i].Name < s[j].Name })
	for i := range s {
		s[i].Value = r.Value(s[i].Name)
	}
	return s
}

// Get returns the value of name in the snapshot, or 0 when it has none.
func (s Snapshot) Get(name string) uint64 {
	i := sort.Search(len(s), func(i int) bool { return s[i].Name >= name })
	if i < len(s) && s[i].Name == name {
		return s[i].Value
	}
	return 0
}

// Event is one entry of the event log.
type Event struct {
	Source string // the emitting registry's owner; empty for none
	Kind   string // what happened, e.g. "txlog.degraded"
	Fields []any  // alternating keys and values
}

// String renders the event as its log line: "source: kind key=value ...".
func (e Event) String() string {
	var b strings.Builder
	if e.Source != "" {
		b.WriteString(e.Source + ": ")
	}
	b.WriteString(e.Kind)
	for i := 0; i+1 < len(e.Fields); i += 2 {
		fmt.Fprintf(&b, " %v=%v", e.Fields[i], e.Fields[i+1])
	}
	return b.String()
}

type subscriber struct {
	kind string
	ch   chan Event
}

var (
	subMu sync.Mutex
	subs  []*subscriber
)

// Subscribe returns a channel that receives every event of kind emitted
// from now on, until cancel is called. Delivery never blocks the emitter:
// an event that finds the channel full is dropped. The buffer holds far
// more than the few transitions a test waits for.
func Subscribe(kind string) (events <-chan Event, cancel func()) {
	s := &subscriber{kind: kind, ch: make(chan Event, 64)}
	subMu.Lock()
	subs = append(subs, s)
	subMu.Unlock()
	return s.ch, func() {
		subMu.Lock()
		subs = slices.DeleteFunc(subs, func(x *subscriber) bool { return x == s })
		subMu.Unlock()
	}
}

// Event logs one event under the registry's source. A nil registry is
// allowed, for a component its owner has not attached yet: the event then
// names no source, and the fields should say where it happened.
func (r *Registry) Event(kind string, fields ...any) {
	e := Event{Kind: kind, Fields: fields}
	if r != nil {
		e.Source = r.source
	}
	fmt.Fprintln(os.Stderr, e)
	subMu.Lock()
	defer subMu.Unlock()
	for _, s := range subs {
		if s.kind == kind {
			select {
			case s.ch <- e:
			default:
			}
		}
	}
}
