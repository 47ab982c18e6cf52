package tcp

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"wren/internal/core"
	"wren/internal/hlc"
	"wren/internal/transport"
	"wren/internal/wire"
)

func TestFrameRoundTrip(t *testing.T) {
	recvA := make(chan wire.Message, 16)
	a, err := New(Config{
		Self:       transport.ServerID(0, 0),
		ListenAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Register(transport.ServerID(0, 0), transport.HandlerFunc(
		func(from transport.NodeID, m wire.Message) { recvA <- m }))

	recvB := make(chan wire.Message, 16)
	b, err := New(Config{
		Self:       transport.ServerID(0, 1),
		ListenAddr: "127.0.0.1:0",
		Peers: map[transport.NodeID]string{
			transport.ServerID(0, 0): a.Addr(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Register(transport.ServerID(0, 1), transport.HandlerFunc(
		func(from transport.NodeID, m wire.Message) { recvB <- m }))

	// B -> A over a dialed connection.
	want := &wire.Heartbeat{SrcDC: 3, Partition: 7, TS: hlc.New(123, 4)}
	if err := b.Send(transport.ServerID(0, 1), transport.ServerID(0, 0), want); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-recvA:
		got := m.(*wire.Heartbeat)
		if got.TS != want.TS || got.SrcDC != want.SrcDC {
			t.Fatalf("got %+v, want %+v", got, want)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout waiting for frame")
	}

	// A -> B over the learned (inbound) connection: A has no peer entry
	// for B, so the reply must reuse the connection B opened.
	reply := &wire.CommitTx{TxID: 9, CT: hlc.New(55, 0)}
	if err := a.Send(transport.ServerID(0, 0), transport.ServerID(0, 1), reply); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-recvB:
		got := m.(*wire.CommitTx)
		if got.TxID != 9 || got.CT != hlc.New(55, 0) {
			t.Fatalf("got %+v", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout waiting for learned-route reply")
	}
}

func TestFIFOOverTCP(t *testing.T) {
	recv := make(chan uint64, 1024)
	a, err := New(Config{Self: transport.ServerID(0, 0), ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Register(transport.ServerID(0, 0), transport.HandlerFunc(
		func(_ transport.NodeID, m wire.Message) { recv <- m.(*wire.CommitTx).TxID }))

	b, err := New(Config{
		Self:  transport.ServerID(0, 1),
		Peers: map[transport.NodeID]string{transport.ServerID(0, 0): a.Addr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const count = 500
	for i := uint64(0); i < count; i++ {
		if err := b.Send(transport.ServerID(0, 1), transport.ServerID(0, 0),
			&wire.CommitTx{TxID: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < count; i++ {
		select {
		case got := <-recv:
			if got != i {
				t.Fatalf("FIFO violated: got %d, want %d", got, i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timeout at message %d", i)
		}
	}
}

func TestSendNoRoute(t *testing.T) {
	n, err := New(Config{Self: transport.ServerID(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	err = n.Send(transport.ServerID(0, 0), transport.ServerID(0, 9), &wire.Heartbeat{})
	if err == nil {
		t.Fatal("expected no-route error")
	}
}

func TestSendAfterClose(t *testing.T) {
	n, err := New(Config{Self: transport.ServerID(0, 0), ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	n.Close()
	if err := n.Send(transport.ServerID(0, 0), transport.ServerID(0, 0), &wire.Heartbeat{}); err != ErrClosed {
		t.Fatalf("Send after close = %v, want ErrClosed", err)
	}
	n.Close() // idempotent
}

// TestWrenOverTCP runs a real 1-DC, 2-partition Wren deployment over TCP
// sockets with a TCP client — the cmd/wren-server + cmd/wren-cli path.
// wrenOverTCP starts a one-DC, two-partition Wren deployment whose servers
// and client each run over their own Network on loopback.
func wrenOverTCP(t *testing.T) (nets []*Network, cliNet *Network, client *core.Client) {
	t.Helper()
	const (
		dcs   = 1
		parts = 2
	)
	// First pass: bind listeners to learn addresses.
	nets = make([]*Network, parts)
	addrs := make(map[transport.NodeID]string, parts)
	for p := 0; p < parts; p++ {
		n, err := New(Config{Self: transport.ServerID(0, p), ListenAddr: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		nets[p] = n
		addrs[transport.ServerID(0, p)] = n.Addr()
	}
	// Inject full peer maps (every server knows every other).
	for p := 0; p < parts; p++ {
		nets[p].cfg.Peers = addrs
	}

	for p := 0; p < parts; p++ {
		srv, err := core.NewServer(core.ServerConfig{
			DC: 0, Partition: p, NumDCs: dcs, NumPartitions: parts,
			Network:        nets[p],
			ApplyInterval:  time.Millisecond,
			GossipInterval: time.Millisecond,
			GCInterval:     -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		t.Cleanup(srv.Stop)
	}

	cliNet, err := New(Config{
		Self:  transport.ClientID(0, 1),
		Peers: addrs,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cliNet.Close)
	client, err = core.NewClient(core.ClientConfig{
		DC: 0, ClientIndex: 1, NumPartitions: parts,
		Network:              cliNet,
		CoordinatorPartition: 0,
		RequestTimeout:       5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return nets, cliNet, client
}

func TestWrenOverTCP(t *testing.T) {
	_, _, client := wrenOverTCP(t)
	tx, err := client.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := tx.Write(fmt.Sprintf("tcp-key-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	ct, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if ct == 0 {
		t.Fatal("commit over TCP returned zero timestamp")
	}

	tx2, err := client.Begin()
	if err != nil {
		t.Fatal(err)
	}
	got, err := tx2.Read("tcp-key-0", "tcp-key-1", "tcp-key-2", "tcp-key-3")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if string(got[fmt.Sprintf("tcp-key-%d", i)]) != "v" {
			t.Fatalf("missing key %d over TCP: %v", i, got)
		}
	}
	if _, err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestOversizedWriteKeepsConnection writes a value above the wire's field
// bound over TCP. The session refuses it before sending, so no server
// drops the connection over a frame it cannot decode (tcp.evictions stays
// 0 everywhere), and the next transaction commits.
func TestOversizedWriteKeepsConnection(t *testing.T) {
	nets, cliNet, client := wrenOverTCP(t)
	tx, err := client.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write("big", make([]byte, 5<<20)); !errors.Is(err, core.ErrTooLarge) {
		t.Fatalf("Write of a 5 MiB value: %v, want ErrTooLarge", err)
	}
	if err := tx.Write("small", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx, err = client.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write("small", []byte("w")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatalf("the session's next transaction: %v", err)
	}
	for _, n := range append(nets, cliNet) {
		if ev := n.Obs().Value("tcp.evictions"); ev != 0 {
			t.Errorf("%s: tcp.evictions = %d, want 0", n.cfg.Self, ev)
		}
	}
}

// startEchoServer runs a Network at listen that echoes every Heartbeat
// back to its sender over the learned (inbound) connection.
func startEchoServer(t *testing.T, self transport.NodeID, listen string) *Network {
	t.Helper()
	var s *Network
	var err error
	// A just-closed listener's port can linger briefly; retry the bind.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s, err = New(Config{Self: self, ListenAddr: listen})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", listen, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.Register(self, transport.HandlerFunc(func(from transport.NodeID, m wire.Message) {
		if hb, ok := m.(*wire.Heartbeat); ok {
			_ = s.Send(self, from, &wire.Heartbeat{TS: hb.TS})
		}
	}))
	return s
}

// TestReconnectAfterServerRestart kills and restarts the server on the
// same address mid-session: the client's managed link must redial
// transparently (new connection epoch) and serve the next request without
// the client being recreated.
func TestReconnectAfterServerRestart(t *testing.T) {
	srvID := transport.ServerID(0, 0)
	cliID := transport.ClientID(0, 1)

	s1 := startEchoServer(t, srvID, "127.0.0.1:0")
	addr := s1.Addr()

	cli, err := New(Config{
		Self:          cliID,
		Peers:         map[transport.NodeID]string{srvID: addr},
		RedialBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	echoes := make(chan hlc.Timestamp, 64)
	cli.Register(cliID, transport.HandlerFunc(func(_ transport.NodeID, m wire.Message) {
		echoes <- m.(*wire.Heartbeat).TS
	}))

	if err := cli.Send(cliID, srvID, &wire.Heartbeat{TS: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-echoes:
	case <-time.After(5 * time.Second):
		t.Fatal("no echo before restart")
	}

	s1.Close()
	time.Sleep(50 * time.Millisecond) // let the client observe the EOF
	s2 := startEchoServer(t, srvID, addr)
	defer s2.Close()

	// The same client object must reach the restarted server. A frame
	// written into the dying socket before the failure was observed can
	// be lost by TCP itself, so resend until the echo arrives.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := cli.Send(cliID, srvID, &wire.Heartbeat{TS: 2}); err != nil {
			t.Fatalf("Send after restart: %v", err)
		}
		select {
		case <-echoes:
		case <-time.After(250 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("restarted server never served the reconnected client")
			}
			continue
		}
		break
	}

	if got := cli.Epoch(srvID); got < 2 {
		t.Fatalf("expected a new connection epoch after restart, epoch=%d", got)
	}
	if st := cli.Stats(); st.Redials == 0 {
		t.Fatalf("expected redials after restart, stats=%+v", st)
	}
}

// TestLearnedConnEvictionOnClientRestart is the learned-route variant:
// when the client side of an inbound connection goes away, the server's
// learned entry must be evicted (not poison the route), and a new
// connection from the same node id must be learned and served.
func TestLearnedConnEvictionOnClientRestart(t *testing.T) {
	srvID := transport.ServerID(0, 0)
	cliID := transport.ClientID(0, 1)

	srv := startEchoServer(t, srvID, "127.0.0.1:0")
	defer srv.Close()
	peers := map[transport.NodeID]string{srvID: srv.Addr()}

	roundTrip := func(cli *Network, echoes chan hlc.Timestamp, ts hlc.Timestamp) {
		t.Helper()
		if err := cli.Send(cliID, srvID, &wire.Heartbeat{TS: ts}); err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-echoes:
			if got != ts {
				t.Fatalf("echo = %v, want %v", got, ts)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no echo for ts=%v", ts)
		}
	}

	cli1, err := New(Config{Self: cliID, Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	echoes1 := make(chan hlc.Timestamp, 4)
	cli1.Register(cliID, transport.HandlerFunc(func(_ transport.NodeID, m wire.Message) {
		echoes1 <- m.(*wire.Heartbeat).TS
	}))
	roundTrip(cli1, echoes1, 1)

	cli1.Close()
	// The dead learned entry must be evicted rather than cached forever:
	// an unsolicited send to the departed client fails with no-route (or a
	// write error while the eviction races the EOF), never a silent hang.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := srv.Send(srvID, cliID, &wire.Heartbeat{TS: 9}); err != nil && errors.Is(err, ErrNoRoute) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dead learned entry was never evicted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A new session from the same node id is learned afresh and served.
	cli2, err := New(Config{Self: cliID, Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	echoes2 := make(chan hlc.Timestamp, 4)
	cli2.Register(cliID, transport.HandlerFunc(func(_ transport.NodeID, m wire.Message) {
		echoes2 <- m.(*wire.Heartbeat).TS
	}))
	roundTrip(cli2, echoes2, 2)
}

// TestSendShedsWhenQueueFull verifies the bounded outbound queue: with
// the destination unreachable, Send fails fast with a typed overload
// error instead of blocking the caller.
func TestSendShedsWhenQueueFull(t *testing.T) {
	srvID := transport.ServerID(0, 0)
	cliID := transport.ClientID(0, 1)
	n, err := New(Config{
		Self:            cliID,
		Peers:           map[transport.NodeID]string{srvID: "127.0.0.1:1"}, // refuses
		MaxQueuedFrames: 4,
		RedialBackoff:   50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		err := n.Send(cliID, srvID, &wire.Heartbeat{})
		if errors.Is(err, transport.ErrOverloaded) {
			break
		}
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("queue to unreachable peer never shed load")
		}
	}
	if st := n.Stats(); st.Overloaded == 0 || n.Obs().Value("tcp.overloaded") != st.Overloaded {
		t.Fatalf("overload not counted: %+v, registry %v", st, n.Obs().Snapshot())
	}
}

// BenchmarkFrameRead measures the receive path per frame over loopback
// TCP: a writer streams Heartbeat frames about 64 KiB at a time, and the
// read loop splits and delivers them. Steady state allocates only what
// wire.Decode returns, and a read serves many frames.
func BenchmarkFrameRead(b *testing.B) {
	self := transport.ServerID(0, 0)
	n, err := New(Config{Self: self})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	delivered := 0
	n.Register(self, transport.HandlerFunc(func(transport.NodeID, wire.Message) { delivered++ }))
	cli, srv := loopbackPair(b)
	defer cli.Close()
	frame := encodeFrame(wire.NewEncoder(), transport.ServerID(0, 1),
		&wire.Heartbeat{SrcDC: 1, Partition: 2, TS: hlc.New(7, 7)})
	perBlock := (64 << 10) / len(frame)
	block := bytes.Repeat(frame, perBlock)
	go func() {
		for sent := 0; sent < b.N; sent += perBlock {
			k := min(perBlock, b.N-sent)
			if _, err := cli.Write(block[:k*len(frame)]); err != nil {
				return
			}
		}
		_ = cli.(*net.TCPConn).CloseWrite()
	}()
	pc := newPeerConn(srv)
	if !n.trackConn(pc) {
		b.Fatal("network already closed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	n.readLoop(pc, nil) // returns at the end of the stream
	b.StopTimer()
	if delivered != b.N {
		b.Fatalf("delivered %d frames, want %d", delivered, b.N)
	}
	b.ReportMetric(float64(n.readCalls.Load())/float64(b.N), "reads/frame")
}
