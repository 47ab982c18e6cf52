// Package replicatest holds test support shared by the packages that drive
// replica.Runtime-based servers (core, cure, cluster).
package replicatest

import (
	"testing"
	"time"

	"wren/internal/hlc"
	"wren/internal/transport"
	"wren/internal/wire"
)

// HeldKey is the key the never-decided transaction of HoldApply would
// write; it must never show up in an engine.
const HeldKey = "replicatest/held"

// HoldApply holds back one partition server's apply pass — and with it the
// DC's stable time — the way production does: it prepares a transaction on
// the server whose coordinator never decides it. The pending prepare keeps
// the apply bound below the returned proposal, so every later commit is
// acknowledged, logged and left on the commit list, whatever events or
// tickers would otherwise install it; Stop drops the prepare and flushes.
// Tests that used to freeze ΔR or ΔG for this freeze the protocol instead.
//
// The transaction's id names a coordinator in DC 255, which no deployment
// has, so nothing ever probes or resolves it. One hold per server.
func HoldApply(t testing.TB, net transport.Network, server transport.NodeID) hlc.Timestamp {
	t.Helper()
	votes := make(chan hlc.Timestamp, 1)
	// Far above the client indices tests and cluster pools use.
	self := transport.ClientID(server.DC, 1<<24+server.Node)
	net.Register(self, transport.HandlerFunc(func(_ transport.NodeID, m wire.Message) {
		if resp, ok := m.(*wire.PrepareResp); ok {
			select {
			case votes <- resp.PT:
			default:
			}
		}
	}))
	txID := uint64(0xff)<<56 | uint64(server.Node)<<40 | 1
	err := net.Send(self, server, &wire.PrepareReq{
		ReqID: 1, TxID: txID,
		Writes: []wire.KV{{Key: HeldKey, Value: []byte("never decided")}},
	})
	if err != nil {
		t.Fatalf("hold %v: %v", server, err)
	}
	select {
	case pt := <-votes:
		if pt == 0 {
			t.Fatalf("hold %v: the server refused the prepare", server)
		}
		return pt
	case <-time.After(10 * time.Second):
		t.Fatalf("hold %v: no PrepareResp", server)
		return 0
	}
}
