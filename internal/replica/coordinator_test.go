package replica

import (
	"testing"
	"time"

	"wren/internal/hlc"
	"wren/internal/transport"
	"wren/internal/wire"
)

// coordinator is one partition acting as a client's coordinator, with the
// client's endpoint: begin starts a transaction (releasing done, when not
// zero) and returns its id.
type coordinator struct {
	*node
	proto   *fakeProto
	client  transport.NodeID
	replies chan wire.Message
}

func newCoordinator(t *testing.T) *coordinator {
	net := newNet(t)
	n := newNode(t, net, 0, 0, 1, 1, nil)
	client := transport.ClientID(0, 1)
	return &coordinator{node: n, proto: n.proto.(*fakeProto), client: client, replies: endpoint(net, client)}
}

func (c *coordinator) begin(t *testing.T, done uint64) uint64 {
	t.Helper()
	c.HandleMessage(c.client, &wire.StartTxReq{ReqID: 1, Done: done})
	return await[*wire.StartTxResp](t, c.replies).TxID
}

// read sends a transactional read for txID and returns whether the
// coordinator answered that the context is gone.
func (c *coordinator) readExpired(t *testing.T, txID uint64) bool {
	t.Helper()
	c.HandleMessage(c.client, &wire.TxReadReq{ReqID: 2, TxID: txID, Keys: []string{"k"}})
	return await[*wire.TxReadResp](t, c.replies).Expired
}

// TestStartTxReleasesDone: a StartTxReq naming the session's previous
// transaction in Done releases its context, so a session holds one.
func TestStartTxReleasesDone(t *testing.T) {
	c := newCoordinator(t)
	first := c.begin(t, 0)
	c.begin(t, first)
	if open := c.Obs().Value("ctx.open"); open != 1 {
		t.Fatalf("ctx.open = %d after a begin that released the previous transaction, want 1", open)
	}
	if !c.readExpired(t, first) {
		t.Fatal("a read of the released transaction was served")
	}
}

// TestTxReadUnknownContext: a read of a transaction the coordinator does
// not know is answered Expired, and takes no admission slot on the way.
func TestTxReadUnknownContext(t *testing.T) {
	c := newCoordinator(t)
	if !c.readExpired(t, 12345) {
		t.Fatal("a read of an unknown transaction was not answered Expired")
	}
	if inflight := c.admissionCounter(c.client).Load(); inflight != 0 {
		t.Fatalf("%d admission slots held after the Expired reply, want 0", inflight)
	}
}

// TestContextExpiresOnce: past TxContextTTL one GC tick expires a context,
// and counts it once; a second tick finds nothing more to expire.
func TestContextExpiresOnce(t *testing.T) {
	c := newCoordinator(t)
	id := c.begin(t, 0)
	c.cfg.TxContextTTL = time.Nanosecond // no loop runs: the test owns the config
	for tick := 1; tick <= 2; tick++ {
		c.gcTick()
		if n := c.Obs().Value("ctx.expired"); n != 1 {
			t.Fatalf("ctx.expired = %d after GC tick %d, want 1", n, tick)
		}
	}
	if open := c.Obs().Value("ctx.open"); open != 0 {
		t.Fatalf("ctx.open = %d after expiry, want 0", open)
	}
	if !c.readExpired(t, id) {
		t.Fatal("a read of the expired transaction was served")
	}
}

// TestOpenContextHoldsGCFloor: an open context whose snapshot floor is
// below the stable floor holds the partition's GC floor down, and
// releasing it lets the floor rise to the stable one.
func TestOpenContextHoldsGCFloor(t *testing.T) {
	c := newCoordinator(t)
	floor := func() hlc.Timestamp {
		c.gcTick()
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.peerOldest[c.cfg.Partition]
	}
	c.proto.stable = 10
	id := c.begin(t, 0)
	c.proto.stable = 20
	if got := floor(); got != 10 {
		t.Fatalf("GC floor %d with a context at 10 open, want 10", got)
	}
	// The release is the next begin's Done; that context is at 20.
	c.begin(t, id)
	if got := floor(); got != 20 {
		t.Fatalf("GC floor %d after the context at 10 was released, want 20", got)
	}
}
