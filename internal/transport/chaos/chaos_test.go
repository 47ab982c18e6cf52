package chaos

import (
	"sync"
	"testing"
	"time"

	"wren/internal/transport"
	"wren/internal/wire"
)

// collector registers a handler that records received messages.
type collector struct {
	mu   sync.Mutex
	msgs []wire.Message
}

func (c *collector) handle(from transport.NodeID, m wire.Message) {
	c.mu.Lock()
	c.msgs = append(c.msgs, m)
	c.mu.Unlock()
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func (c *collector) txIDs() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]uint64, 0, len(c.msgs))
	for _, m := range c.msgs {
		out = append(out, m.(*wire.CommitTx).TxID)
	}
	return out
}

func newPair(t *testing.T, seed int64) (*Network, transport.NodeID, transport.NodeID, *collector) {
	t.Helper()
	n := New(transport.NewMemory(nil), seed)
	t.Cleanup(n.Close)
	a := transport.ServerID(0, 0)
	b := transport.ServerID(1, 0)
	col := &collector{}
	n.Register(a, transport.HandlerFunc(func(transport.NodeID, wire.Message) {}))
	n.Register(b, transport.HandlerFunc(col.handle))
	return n, a, b, col
}

func send(t *testing.T, n *Network, from, to transport.NodeID, txID uint64) {
	t.Helper()
	if err := n.Send(from, to, &wire.CommitTx{TxID: txID}); err != nil {
		t.Fatalf("Send: %v", err)
	}
}

func waitCount(t *testing.T, col *collector, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for col.count() < want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d messages, have %d", want, col.count())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPassThroughNoRules(t *testing.T) {
	n, a, b, col := newPair(t, 1)
	for i := 0; i < 10; i++ {
		send(t, n, a, b, uint64(i))
	}
	waitCount(t, col, 10)
	if got := n.Obs().Value("chaos.delivered"); got != 0 {
		t.Fatalf("fast path should bypass link goroutines, delivered=%d", got)
	}
}

func TestDropIsDeterministic(t *testing.T) {
	run := func(seed int64) int {
		n := New(transport.NewMemory(nil), seed)
		defer n.Close()
		a, b := transport.ServerID(0, 0), transport.ServerID(1, 0)
		col := &collector{}
		n.Register(a, transport.HandlerFunc(func(transport.NodeID, wire.Message) {}))
		n.Register(b, transport.HandlerFunc(col.handle))
		n.SetDCRule(0, 1, Rule{DropProb: 0.5})
		for i := 0; i < 200; i++ {
			if err := n.Send(a, b, &wire.CommitTx{TxID: uint64(i)}); err != nil {
				t.Fatalf("Send: %v", err)
			}
		}
		want := 200 - int(n.Obs().Value("chaos.dropped"))
		deadline := time.Now().Add(5 * time.Second)
		for col.count() < want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		return col.count()
	}
	first := run(42)
	if first == 0 || first == 200 {
		t.Fatalf("expected partial delivery at 50%% drop, got %d/200", first)
	}
	if second := run(42); second != first {
		t.Fatalf("same seed diverged: %d vs %d deliveries", first, second)
	}
}

func TestDuplicateDeliversClone(t *testing.T) {
	n, a, b, col := newPair(t, 7)
	n.SetDCRule(0, 1, Rule{DupProb: 1})
	send(t, n, a, b, 99)
	waitCount(t, col, 2)
	col.mu.Lock()
	defer col.mu.Unlock()
	if col.msgs[0] == col.msgs[1] {
		t.Fatal("duplicate delivered the same pointer; pooled messages would be double-freed")
	}
	for _, m := range col.msgs {
		if m.(*wire.CommitTx).TxID != 99 {
			t.Fatalf("clone corrupted: %+v", m)
		}
	}
}

func TestDelayAndReorder(t *testing.T) {
	n, a, b, col := newPair(t, 3)
	// First message pushed far behind; second sent immediately after must
	// overtake it because delivery follows scheduled time.
	n.SetDCRule(0, 1, Rule{Delay: 50 * time.Millisecond})
	send(t, n, a, b, 1)
	n.SetDCRule(0, 1, Rule{})
	send(t, n, a, b, 2)
	waitCount(t, col, 2)
	if ids := col.txIDs(); ids[0] != 2 || ids[1] != 1 {
		t.Fatalf("expected delayed message overtaken, got order %v", ids)
	}
}

func TestCutHoldsLosslesslyUntilHeal(t *testing.T) {
	n, a, b, col := newPair(t, 5)
	n.Cut(0, 1)
	for i := 0; i < 20; i++ {
		send(t, n, a, b, uint64(i))
	}
	time.Sleep(20 * time.Millisecond)
	if got := col.count(); got != 0 {
		t.Fatalf("cut link leaked %d messages", got)
	}
	n.Heal(0, 1)
	waitCount(t, col, 20)
	for i, id := range col.txIDs() {
		if id != uint64(i) {
			t.Fatalf("held messages delivered out of order: %v", col.txIDs())
		}
	}
}

func TestCutIsDirected(t *testing.T) {
	n := New(transport.NewMemory(nil), 9)
	defer n.Close()
	a, b := transport.ServerID(0, 0), transport.ServerID(1, 0)
	colA, colB := &collector{}, &collector{}
	n.Register(a, transport.HandlerFunc(colA.handle))
	n.Register(b, transport.HandlerFunc(colB.handle))
	n.Cut(0, 1)
	send(t, n, a, b, 1) // held
	send(t, n, b, a, 2) // flows: only 0->1 is cut
	waitCount(t, colA, 1)
	if colB.count() != 0 {
		t.Fatal("directed cut leaked forward traffic")
	}
	n.Heal(0, 1)
	waitCount(t, colB, 1)
}

func TestClientRulePrecedence(t *testing.T) {
	n := New(transport.NewMemory(nil), 11)
	defer n.Close()
	srv := transport.ServerID(0, 0)
	cli := transport.ClientID(0, 0)
	colSrv, colCli := &collector{}, &collector{}
	n.Register(srv, transport.HandlerFunc(colSrv.handle))
	n.Register(cli, transport.HandlerFunc(colCli.handle))
	// DC rule drops everything, but the client rule (empty = no faults)
	// wins on links touching a client.
	n.SetDCRule(0, 0, Rule{DropProb: 1})
	n.SetClientRule(0, Rule{})
	send(t, n, cli, srv, 1)
	send(t, n, srv, cli, 2)
	waitCount(t, colSrv, 1)
	waitCount(t, colCli, 1)
}

func TestSendAfterClose(t *testing.T) {
	n, a, b, _ := newPair(t, 13)
	n.Close()
	if err := n.Send(a, b, &wire.CommitTx{}); err != transport.ErrClosed {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}
