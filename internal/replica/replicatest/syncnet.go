package replicatest

import (
	"testing"

	"wren/internal/transport"
	"wren/internal/wire"
)

// SyncNet delivers every message synchronously on the sender's goroutine,
// so an allocation measurement over a whole request → handler → response
// cycle is deterministic (the in-memory transport delivers
// asynchronously, which would race pooled messages back into their pools
// mid-measurement). Not safe for concurrent use; nothing is queued, and a
// message to an unregistered node is dropped.
type SyncNet struct {
	handlers map[transport.NodeID]transport.Handler
}

// NewSyncNet returns an empty SyncNet.
func NewSyncNet() *SyncNet { return &SyncNet{handlers: make(map[transport.NodeID]transport.Handler)} }

// Register implements transport.Network.
func (n *SyncNet) Register(id transport.NodeID, h transport.Handler) { n.handlers[id] = h }

// Send implements transport.Network: it runs the destination's handler.
func (n *SyncNet) Send(from, to transport.NodeID, m wire.Message) error {
	if h := n.handlers[to]; h != nil {
		h.HandleMessage(from, m)
	}
	return nil
}

// Close implements transport.Network.
func (n *SyncNet) Close() {}

// CoordinatorRoundAllocs returns the allocations of one coordinator round
// on net, averaged over 200 rounds after 10 warm-ups: a StartTxReq that
// releases the previous round's transaction, then a TxReadReq for keys,
// both delivered to coordinator. The two request literals are counted.
// Every key must be stored and visible to a fresh snapshot: a reply that
// misses one fails the test. Under -race the test is skipped.
func CoordinatorRoundAllocs(t testing.TB, net *SyncNet, coordinator transport.NodeID, keys []string) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("exact allocation pins are meaningless under -race (pool instrumentation allocates)")
	}
	client := transport.ClientID(coordinator.DC, 0)
	var txID uint64
	var items int
	net.Register(client, transport.HandlerFunc(func(_ transport.NodeID, m wire.Message) {
		switch resp := m.(type) {
		case *wire.StartTxResp:
			txID = resp.TxID
		case *wire.TxReadResp:
			items = len(resp.Items)
			for _, c := range resp.Chunks {
				items += len(c)
			}
			wire.PutTxReadResp(resp)
		}
	}))
	round := func() {
		_ = net.Send(client, coordinator, &wire.StartTxReq{Done: txID})
		_ = net.Send(client, coordinator, &wire.TxReadReq{TxID: txID, Keys: keys})
	}
	for range 10 {
		round()
	}
	if items != len(keys) {
		t.Fatalf("a round read %d of %d keys", items, len(keys))
	}
	return testing.AllocsPerRun(200, round)
}
