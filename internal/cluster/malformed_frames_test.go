package cluster

import (
	"testing"
	"time"

	"wren/internal/hlc"
	"wren/internal/transport"
	"wren/internal/wire"
)

// TestMalformedInterDCFramesRefused sends dc0/p0 one malformed frame per
// inter-DC handler and field — a source DC the deployment does not have (a
// peer configured with more DCs), this server's OWN DC, another partition —
// and checks that each is refused: the server neither panics on an
// out-of-range index nor lets a bogus frame move its clocks or reach its
// engine, and it still serves afterwards. Before the check, the first shape
// killed the process and a Heartbeat naming the own DC advanced the local
// version clock past unapplied commits.
func TestMalformedInterDCFramesRefused(t *testing.T) {
	future := hlc.FromTime(time.Now().Add(24 * time.Hour))
	bogusTx := []wire.ReplTx{{TxID: 1<<56 | 99, CT: future, Writes: []wire.KV{{Key: "bogus", Value: []byte("x")}}}}
	const own, absent = 0, 7
	frames := []struct {
		name string
		m    wire.Message
	}{
		{"Replicate/absent-dc", &wire.Replicate{SrcDC: absent, Partition: 0, Txs: bogusTx}},
		{"Replicate/own-dc", &wire.Replicate{SrcDC: own, Partition: 0, Txs: bogusTx}},
		{"Replicate/other-partition", &wire.Replicate{SrcDC: 1, Partition: 1, Txs: bogusTx}},
		{"Heartbeat/absent-dc", &wire.Heartbeat{SrcDC: absent, Partition: 0, TS: future}},
		{"Heartbeat/own-dc", &wire.Heartbeat{SrcDC: own, Partition: 0, TS: future}},
		{"Heartbeat/other-partition", &wire.Heartbeat{SrcDC: 1, Partition: 1, TS: future}},
		{"ReplicateAck/absent-dc", &wire.ReplicateAck{DC: absent, Partition: 0, UpTo: future}},
		{"ReplicateAck/own-dc", &wire.ReplicateAck{DC: own, Partition: 0, UpTo: future}},
		{"ReplicateAck/other-partition", &wire.ReplicateAck{DC: 1, Partition: 1, UpTo: future}},
	}
	for _, proto := range allProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			cfg := fastConfig(proto, 2, 2)
			cl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			target := transport.ServerID(0, 0)
			vectorOf := func() []hlc.Timestamp {
				if proto == Wren {
					return cl.WrenServer(0, 0).VersionVector()
				}
				return cl.CureServer(0, 0).VersionVector()
			}

			// The sender shares one FIFO link with its probes: a HealthResp
			// means every frame sent before the HealthReq has been handled.
			probe := transport.ClientID(1, 1<<22)
			handled := make(chan struct{}, 1)
			cl.Network().Register(probe, transport.HandlerFunc(func(_ transport.NodeID, m wire.Message) {
				if _, ok := m.(*wire.HealthResp); ok {
					handled <- struct{}{}
				}
			}))
			for _, f := range frames {
				if err := cl.Network().Send(probe, target, f.m); err != nil {
					t.Fatalf("%s: %v", f.name, err)
				}
				if err := cl.Network().Send(probe, target, &wire.HealthReq{ReqID: 1}); err != nil {
					t.Fatalf("%s: %v", f.name, err)
				}
				select {
				case <-handled:
				case <-time.After(10 * time.Second):
					t.Fatalf("%s: the server stopped answering", f.name)
				}
				for dc, ts := range vectorOf() {
					if ts >= future {
						t.Fatalf("%s: version vector entry %d jumped to the frame's timestamp (%v)", f.name, dc, ts)
					}
				}
				if v := lifecycleServerAt(cl, 0, 0).Store().Latest("bogus"); v != nil {
					t.Fatalf("%s: the frame's write reached the engine: %+v", f.name, v)
				}
			}

			// Still serving, and still replicating to the real DC 1.
			c, err := cl.NewClient(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			k := keyOwnedBy("after-malformed", 0, 2)
			commitKeys(t, c, "ok", k)
			awaitApplied(t, cl, 0, map[string]string{k: "ok"})
			awaitApplied(t, cl, 1, map[string]string{k: "ok"})
		})
	}
}
