package transport

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wren/internal/hlc"
	"wren/internal/obs"
	"wren/internal/wire"
)

// collector records received messages in order.
type collector struct {
	mu   sync.Mutex
	msgs []wire.Message
	from []NodeID
	ch   chan struct{}
}

func newCollector() *collector {
	return &collector{ch: make(chan struct{}, 1024)}
}

func (c *collector) HandleMessage(from NodeID, m wire.Message) {
	c.mu.Lock()
	c.msgs = append(c.msgs, m)
	c.from = append(c.from, from)
	c.mu.Unlock()
	c.ch <- struct{}{}
}

func (c *collector) waitN(t *testing.T, n int, timeout time.Duration) {
	t.Helper()
	deadline := time.After(timeout)
	for i := 0; i < n; i++ {
		select {
		case <-c.ch:
		case <-deadline:
			t.Fatalf("timed out waiting for %d messages (got %d)", n, i)
		}
	}
}

func (c *collector) snapshot() []wire.Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]wire.Message, len(c.msgs))
	copy(out, c.msgs)
	return out
}

func TestMemoryDeliversMessages(t *testing.T) {
	n := NewMemory(nil)
	defer n.Close()
	recv := newCollector()
	a, b := ServerID(0, 0), ServerID(0, 1)
	n.Register(b, recv)

	want := &wire.Heartbeat{SrcDC: 0, Partition: 0, TS: hlc.New(42, 0)}
	if err := n.Send(a, b, want); err != nil {
		t.Fatal(err)
	}
	recv.waitN(t, 1, time.Second)
	got := recv.snapshot()[0].(*wire.Heartbeat)
	if got.TS != want.TS {
		t.Errorf("delivered %v, want %v", got.TS, want.TS)
	}
}

func TestMemoryFIFOOrderPerLink(t *testing.T) {
	n := NewMemory(nil)
	defer n.Close()
	recv := newCollector()
	a, b := ServerID(0, 0), ServerID(0, 1)
	n.Register(b, recv)

	const count = 500
	for i := 0; i < count; i++ {
		if err := n.Send(a, b, &wire.CommitTx{TxID: uint64(i), CT: hlc.New(int64(i), 0)}); err != nil {
			t.Fatal(err)
		}
	}
	recv.waitN(t, count, 5*time.Second)
	for i, m := range recv.snapshot() {
		if got := m.(*wire.CommitTx).TxID; got != uint64(i) {
			t.Fatalf("message %d has TxID %d: FIFO order violated", i, got)
		}
	}
}

func TestMemoryFIFOUnderConcurrentSenders(t *testing.T) {
	// Different senders may interleave, but each sender's stream must
	// arrive in order.
	n := NewMemory(UniformLatency(100*time.Microsecond, time.Millisecond))
	defer n.Close()
	recv := newCollector()
	dst := ServerID(0, 0)
	n.Register(dst, recv)

	const senders, per = 4, 200
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			src := ServerID(1, s)
			for i := 0; i < per; i++ {
				// TxID encodes (sender, seq).
				_ = n.Send(src, dst, &wire.CommitTx{TxID: uint64(s*1_000_000 + i)})
			}
		}(s)
	}
	wg.Wait()
	recv.waitN(t, senders*per, 10*time.Second)

	lastSeq := map[int]int{}
	for _, m := range recv.snapshot() {
		id := m.(*wire.CommitTx).TxID
		s, seq := int(id/1_000_000), int(id%1_000_000)
		if prev, ok := lastSeq[s]; ok && seq != prev+1 {
			t.Fatalf("sender %d: seq %d after %d", s, seq, prev)
		}
		lastSeq[s] = seq
	}
}

func TestMemoryLatency(t *testing.T) {
	const lat = 30 * time.Millisecond
	n := NewMemory(UniformLatency(0, lat))
	defer n.Close()
	recv := newCollector()
	a, b := ServerID(0, 0), ServerID(1, 0) // inter-DC
	n.Register(b, recv)

	start := time.Now()
	if err := n.Send(a, b, &wire.Heartbeat{}); err != nil {
		t.Fatal(err)
	}
	recv.waitN(t, 1, time.Second)
	if elapsed := time.Since(start); elapsed < lat {
		t.Errorf("delivered after %v, want >= %v", elapsed, lat)
	}
}

func TestMemoryIntraDCFasterThanInterDC(t *testing.T) {
	n := NewMemory(UniformLatency(time.Millisecond, 50*time.Millisecond))
	defer n.Close()
	local, remote := newCollector(), newCollector()
	n.Register(ServerID(0, 1), local)
	n.Register(ServerID(1, 0), remote)

	src := ServerID(0, 0)
	start := time.Now()
	_ = n.Send(src, ServerID(0, 1), &wire.Heartbeat{})
	_ = n.Send(src, ServerID(1, 0), &wire.Heartbeat{})
	local.waitN(t, 1, time.Second)
	localDone := time.Since(start)
	remote.waitN(t, 1, time.Second)
	remoteDone := time.Since(start)
	if localDone >= remoteDone {
		t.Errorf("intra-DC (%v) should beat inter-DC (%v)", localDone, remoteDone)
	}
}

func TestMemoryUnknownDestination(t *testing.T) {
	n := NewMemory(nil)
	defer n.Close()
	err := n.Send(ServerID(0, 0), ServerID(0, 9), &wire.Heartbeat{})
	if err == nil {
		t.Error("Send to unregistered node should fail")
	}
}

func TestMemorySendAfterClose(t *testing.T) {
	n := NewMemory(nil)
	n.Register(ServerID(0, 1), newCollector())
	n.Close()
	if err := n.Send(ServerID(0, 0), ServerID(0, 1), &wire.Heartbeat{}); err == nil {
		t.Error("Send after Close should fail")
	}
}

func TestMemoryCloseIdempotent(t *testing.T) {
	n := NewMemory(nil)
	n.Close()
	n.Close() // must not panic or deadlock
}

func TestMemoryPartitionQueuesAndHeals(t *testing.T) {
	n := NewMemory(nil)
	defer n.Close()
	recv := newCollector()
	a, b := ServerID(0, 0), ServerID(1, 0)
	n.Register(b, recv)

	n.SetDCLinkDown(0, 1, true)
	if err := n.Send(a, b, &wire.Heartbeat{TS: hlc.New(7, 0)}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-recv.ch:
		t.Fatal("message delivered across a partitioned link")
	case <-time.After(50 * time.Millisecond):
	}

	n.SetDCLinkDown(0, 1, false)
	recv.waitN(t, 1, time.Second)
	if got := recv.snapshot()[0].(*wire.Heartbeat).TS; got != hlc.New(7, 0) {
		t.Errorf("wrong message after heal: %v", got)
	}
}

func TestMemoryPartitionDoesNotAffectIntraDC(t *testing.T) {
	n := NewMemory(nil)
	defer n.Close()
	recv := newCollector()
	n.Register(ServerID(0, 1), recv)
	n.SetDCLinkDown(0, 1, true)
	defer n.SetDCLinkDown(0, 1, false)
	_ = n.Send(ServerID(0, 0), ServerID(0, 1), &wire.Heartbeat{})
	recv.waitN(t, 1, time.Second)
}

func TestMemoryByteAccounting(t *testing.T) {
	n := NewMemory(nil)
	defer n.Close()
	n.Register(ServerID(0, 1), newCollector())
	n.Register(ServerID(1, 0), newCollector())

	hb := &wire.Heartbeat{SrcDC: 0, Partition: 0, TS: hlc.New(1, 0)}
	stable := &wire.StableBroadcast{Partition: 0, Local: hlc.New(1, 0), RemoteMin: hlc.New(2, 0)}

	_ = n.Send(ServerID(0, 0), ServerID(0, 1), stable) // intra-DC stabilization
	_ = n.Send(ServerID(0, 0), ServerID(1, 0), hb)     // inter-DC replication

	s := n.Obs().Snapshot()
	if got, want := s.Get("net.bytes.stabilization"), uint64(wire.Size(stable)); got != want {
		t.Errorf("stabilization bytes = %d, want %d", got, want)
	}
	if got, want := s.Get("net.bytes.replication"), uint64(wire.Size(hb)); got != want {
		t.Errorf("replication bytes = %d, want %d", got, want)
	}
	if got := s.Get("net.inter_bytes.stabilization"); got != 0 {
		t.Errorf("stabilization inter-DC bytes = %d, want 0", got)
	}
	if got, want := s.Get("net.inter_bytes.replication"), uint64(wire.Size(hb)); got != want {
		t.Errorf("replication inter-DC bytes = %d, want %d", got, want)
	}
	if s.Get("net.msgs.replication") != 1 || s.Get("net.msgs.stabilization") != 1 {
		t.Errorf("message counts wrong: %v", s)
	}
	if got := totalBytes(s); got != uint64(wire.Size(stable)+wire.Size(hb)) {
		t.Errorf("total bytes = %d", got)
	}
}

// totalBytes sums net.bytes.<class> over every class.
func totalBytes(s obs.Snapshot) uint64 {
	var t uint64
	for _, e := range s {
		if strings.HasPrefix(e.Name, "net.bytes.") {
			t += e.Value
		}
	}
	return t
}

func TestMemorySelfSendNotCounted(t *testing.T) {
	n := NewMemory(nil)
	defer n.Close()
	recv := newCollector()
	self := ServerID(0, 0)
	n.Register(self, recv)
	_ = n.Send(self, self, &wire.Heartbeat{})
	recv.waitN(t, 1, time.Second)
	if totalBytes(n.Obs().Snapshot()) != 0 {
		t.Error("loopback traffic must not be counted as network bytes")
	}
}

func TestMemoryManyNodesStress(t *testing.T) {
	n := NewMemory(UniformLatency(0, 0))
	defer n.Close()
	const nodes = 12
	var received atomic.Uint64
	done := make(chan struct{}, 1)
	const total = nodes * (nodes - 1) * 10
	for i := 0; i < nodes; i++ {
		n.Register(ServerID(i%3, i/3), HandlerFunc(func(NodeID, wire.Message) {
			if received.Add(1) == total {
				done <- struct{}{}
			}
		}))
	}
	var wg sync.WaitGroup
	for i := 0; i < nodes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := ServerID(i%3, i/3)
			for j := 0; j < nodes; j++ {
				if j == i {
					continue
				}
				dst := ServerID(j%3, j/3)
				for k := 0; k < 10; k++ {
					if err := n.Send(src, dst, &wire.Heartbeat{TS: hlc.New(int64(k), 0)}); err != nil {
						t.Errorf("send: %v", err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("only %d/%d messages delivered", received.Load(), total)
	}
}

func TestNodeIDHelpers(t *testing.T) {
	c := ClientID(2, 3)
	if !c.IsClient() {
		t.Error("ClientID should be a client")
	}
	if c.DC != 2 {
		t.Errorf("DC = %d", c.DC)
	}
	s := ServerID(1, 4)
	if s.IsClient() {
		t.Error("ServerID should not be a client")
	}
	if s.String() != "dc1/p4" {
		t.Errorf("String = %q", s.String())
	}
	if c.String() != "dc2/client3" {
		t.Errorf("String = %q", c.String())
	}
}

func TestMatrixLatency(t *testing.T) {
	m := map[[2]int]time.Duration{{0, 1}: 10 * time.Millisecond}
	f := MatrixLatency(time.Millisecond, m, 99*time.Millisecond)
	if d := f(ServerID(0, 0), ServerID(0, 1)); d != time.Millisecond {
		t.Errorf("intra = %v", d)
	}
	if d := f(ServerID(0, 0), ServerID(1, 0)); d != 10*time.Millisecond {
		t.Errorf("pair = %v", d)
	}
	if d := f(ServerID(1, 0), ServerID(0, 0)); d != 10*time.Millisecond {
		t.Errorf("reverse pair = %v", d)
	}
	if d := f(ServerID(0, 0), ServerID(3, 0)); d != 99*time.Millisecond {
		t.Errorf("default = %v", d)
	}
}

func TestAWSLatencies(t *testing.T) {
	m := AWSLatencies(1.0)
	if len(m) != 10 {
		t.Errorf("expected 10 DC pairs, got %d", len(m))
	}
	half := AWSLatencies(0.5)
	for k, v := range m {
		if half[k] != v/2 {
			t.Errorf("scaling wrong for %v: %v vs %v", k, half[k], v)
		}
	}
}
