package tcp

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wren/internal/hlc"
	"wren/internal/transport"
	"wren/internal/wire"
)

// countingConn is a net.Conn that collects Writes and counts the calls a
// real socket would pay a syscall or a poller-timer update for.
type countingConn struct {
	net.Conn // nil: any method not overridden below must not be reached

	mu        sync.Mutex
	out       bytes.Buffer
	writes    int
	deadlines int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes++
	return c.out.Write(p)
}

func (c *countingConn) SetWriteDeadline(time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deadlines++
	return nil
}

func (c *countingConn) Close() error { return nil }

func (c *countingConn) counts() (writes, deadlines, written int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes, c.deadlines, c.out.Len()
}

const burstFrames = 64

func burstMsg(i int) *wire.Heartbeat {
	return &wire.Heartbeat{SrcDC: 1, Partition: 2, TS: hlc.New(int64(1000+i), 0)}
}

// loopbackPair returns the two ends of one loopback TCP connection.
func loopbackPair(tb testing.TB) (client, server net.Conn) {
	tb.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer l.Close()
	client, err = net.Dial("tcp", l.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	server, err = l.Accept()
	if err != nil {
		tb.Fatal(err)
	}
	return client, server
}

// TestBackToBackFramesCostOneRead writes 64 frames and the end of the
// stream into a loopback socket before the read loop starts: the loop must
// deliver all of them, in order, for at most two read calls (the second
// one sees the end of the stream) — not two per frame.
func TestBackToBackFramesCostOneRead(t *testing.T) {
	self, from := transport.ServerID(0, 0), transport.ServerID(0, 1)
	n, err := New(Config{Self: self})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var got []hlc.Timestamp
	n.Register(self, transport.HandlerFunc(func(_ transport.NodeID, m wire.Message) {
		got = append(got, m.(*wire.Heartbeat).TS)
	}))

	enc := wire.NewEncoder()
	var stream []byte
	for i := 0; i < burstFrames; i++ {
		stream = append(stream, encodeFrame(enc, from, burstMsg(i))...)
	}
	cli, srv := loopbackPair(t)
	defer cli.Close()
	if _, err := cli.Write(stream); err != nil {
		t.Fatal(err)
	}
	if err := cli.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	pc := newPeerConn(srv)
	if !n.trackConn(pc) {
		t.Fatal("network already closed")
	}
	n.readLoop(pc, nil) // returns at the end of the stream

	if len(got) != burstFrames {
		t.Fatalf("delivered %d frames, want %d", len(got), burstFrames)
	}
	for i, ts := range got {
		if ts != burstMsg(i).TS {
			t.Fatalf("frame %d carries %v, want %v: order lost", i, ts, burstMsg(i).TS)
		}
	}
	if reads := n.Obs().Value("tcp.read_calls"); reads > 2 {
		t.Fatalf("%d frames cost %d read calls, want at most 2", burstFrames, reads)
	}
}

// inqHint reports whether the kernel grants the TCP_INQ hint that lets a
// read loop park without probing.
func inqHint(tb testing.TB) bool {
	cli, srv := loopbackPair(tb)
	defer cli.Close()
	defer srv.Close()
	raw, err := srv.(*net.TCPConn).SyscallConn()
	if err != nil {
		tb.Fatal(err)
	}
	return enableInq(raw)
}

// TestOneReadPerDelivery runs 2 000 sequential request/response round
// trips between two networks on loopback: every frame arrives alone, and
// each side must pay at most 1.1 read calls per frame it delivered — a
// read loop that probes the socket before it waits pays 2 — and at most
// 1.1 write calls per frame it sent. Without the TCP_INQ hint (an OS other
// than Linux, or a kernel before 4.18) the loop cannot tell a drained
// socket from a short read and probes once per wake, so the read bound is
// only logged there.
func TestOneReadPerDelivery(t *testing.T) {
	const rounds = 2000
	hinted := inqHint(t)
	srvID, cliID := transport.ServerID(0, 0), transport.ClientID(0, 1)
	srv, err := New(Config{Self: srvID, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var srvGot atomic.Int64 // the race detector sees no order through a socket
	srv.Register(srvID, transport.HandlerFunc(func(from transport.NodeID, m wire.Message) {
		srvGot.Add(1)
		_ = srv.Send(srvID, from, m)
	}))
	cli, err := New(Config{Self: cliID, Peers: map[transport.NodeID]string{srvID: srv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	echoes := make(chan struct{}, 1)
	cli.Register(cliID, transport.HandlerFunc(func(transport.NodeID, wire.Message) { echoes <- struct{}{} }))

	for i := 0; i < rounds; i++ {
		if err := cli.Send(cliID, srvID, burstMsg(i)); err != nil {
			t.Fatal(err)
		}
		select {
		case <-echoes:
		case <-time.After(5 * time.Second):
			t.Fatalf("no echo for round %d", i)
		}
	}
	for _, side := range []struct {
		name      string
		n         *Network
		delivered int
	}{{"server", srv, int(srvGot.Load())}, {"client", cli, rounds}} {
		reads, writes := side.n.Obs().Value("tcp.read_calls"), side.n.Obs().Value("tcp.write_calls")
		perFrame := float64(reads) / float64(side.delivered)
		t.Logf("%s: %d frames delivered, %d read calls (%.3f per frame), %d write calls",
			side.name, side.delivered, reads, perFrame, writes)
		if side.delivered != rounds {
			t.Fatalf("%s delivered %d frames, want %d", side.name, side.delivered, rounds)
		}
		if perFrame > 1.1 {
			if hinted {
				t.Errorf("%s: %.3f read calls per delivered frame, want at most 1.1", side.name, perFrame)
			} else {
				t.Logf("%s: read bound not checked: no TCP_INQ hint on this kernel", side.name)
			}
		}
		// Each side sends one frame per round, and the other waits for it.
		if perSent := float64(writes) / rounds; perSent > 1.1 {
			t.Errorf("%s: %.3f write calls per frame sent, want at most 1.1", side.name, perSent)
		}
	}
}

// TestHandlerEvictsItsOwnConnection evicts a connection from a handler
// running on that connection's read loop. The loop holds the descriptor's
// read reference while it dispatches, so an eviction that closed the
// descriptor would wait for the loop, which waits for the handler: the
// eviction must only shut the socket down and return.
func TestHandlerEvictsItsOwnConnection(t *testing.T) {
	srvID, cliID := transport.ServerID(0, 0), transport.ClientID(0, 1)
	srv, err := New(Config{Self: srvID, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	returned := make(chan struct{}, 1)
	srv.Register(srvID, transport.HandlerFunc(func(from transport.NodeID, _ wire.Message) {
		srv.mu.Lock()
		pc := srv.learned[from]
		srv.mu.Unlock()
		srv.evictions.Add(1)
		srv.forgetConn(pc, nil)
		returned <- struct{}{}
	}))
	cli, err := New(Config{Self: cliID, Peers: map[transport.NodeID]string{srvID: srv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Send(cliID, srvID, burstMsg(0)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-returned:
	case <-time.After(time.Second):
		// srv is left open: closing it would wait for the stuck loop.
		t.Fatal("a handler evicting its own connection did not return within 1s")
	}
	// The loop then sees EOF and closes the descriptor, and the client
	// redials. A frame sent before the client saw the shutdown is lost with
	// the old connection, as on any dropped link, so retry until one lands.
	deadline := time.Now().Add(5 * time.Second)
	for landed := false; !landed; {
		if time.Now().After(deadline) {
			t.Fatal("the client's frames never arrived over a fresh connection")
		}
		if err := cli.Send(cliID, srvID, burstMsg(1)); err != nil {
			t.Fatal(err)
		}
		select {
		case <-returned:
			landed = true
		case <-time.After(50 * time.Millisecond):
		}
	}
	srv.Close()
}

// TestEvictedConnectionIsNotRelearned evicts a learned connection while
// frames from its sender are still buffered behind the one being handled.
// The loop must deliver none of them: each would learn the connection
// again and route replies over a socket already shut down.
func TestEvictedConnectionIsNotRelearned(t *testing.T) {
	self, from := transport.ServerID(0, 0), transport.ClientID(0, 1)
	n, err := New(Config{Self: self})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var pc *peerConn
	delivered, relearned := 0, 0
	n.Register(self, transport.HandlerFunc(func(from transport.NodeID, _ wire.Message) {
		n.mu.Lock()
		l := n.learned[from]
		n.mu.Unlock()
		if delivered++; delivered == 1 {
			n.evictions.Add(1)
			n.forgetConn(l, nil)
		} else if l == pc {
			relearned++
		}
	}))

	enc := wire.NewEncoder()
	var stream []byte
	for i := 0; i < burstFrames; i++ {
		stream = append(stream, encodeFrame(enc, from, burstMsg(i))...)
	}
	cli, srv := loopbackPair(t)
	defer cli.Close() // held open: the sender is still there
	if _, err := cli.Write(stream); err != nil {
		t.Fatal(err)
	}
	pc = newPeerConn(srv)
	if !n.trackConn(pc) {
		t.Fatal("network already closed")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		n.readLoop(pc, nil)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the read loop of an evicted connection did not end")
	}

	if relearned > 0 || delivered != 1 {
		t.Fatalf("after the eviction %d more frames were delivered, %d of them over a learned route back to the evicted connection; want none",
			delivered-1, relearned)
	}
	n.mu.Lock()
	l, ok := n.learned[from]
	n.mu.Unlock()
	if ok {
		t.Fatalf("learned[%v] = %p after the loop ended (evicted %p), want no entry", from, l, pc)
	}
}

// TestQueuedBurstCostsOneWrite queues 64 frames to a peer before its writer
// runs: they must leave in order in at most two Write calls, with the write
// deadline armed once.
func TestQueuedBurstCostsOneWrite(t *testing.T) {
	self, to := transport.ClientID(0, 1), transport.ServerID(0, 0)
	n, err := New(Config{Self: self})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	conn := &countingConn{}
	pc := newPeerConn(conn)
	if !n.trackConn(pc) {
		t.Fatal("network already closed")
	}
	// A peer as newPeer builds it, but already connected and not yet running.
	p := &peer{n: n, to: to, conn: pc, epoch: 1, notify: make(chan struct{}, 1), done: make(chan struct{})}
	for i := 0; i < burstFrames; i++ {
		if err := p.enqueue(outMsg{from: self, m: burstMsg(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var want []byte
	enc := wire.NewEncoder()
	for i := 0; i < burstFrames; i++ {
		want = append(want, encodeFrame(enc, self, burstMsg(i))...)
	}

	ran := make(chan struct{})
	go func() {
		defer close(ran)
		p.run()
	}()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, _, written := conn.counts(); written >= len(want) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queued burst never written")
		}
		time.Sleep(time.Millisecond)
	}
	p.close()
	<-ran

	writes, deadlines, _ := conn.counts()
	if !bytes.Equal(conn.out.Bytes(), want) {
		t.Fatalf("burst bytes differ from the %d frames encoded one by one", burstFrames)
	}
	if writes > 2 {
		t.Fatalf("%d queued frames cost %d Write calls, want at most 2", burstFrames, writes)
	}
	if deadlines != 1 {
		t.Fatalf("write deadline armed %d times for one burst, want 1", deadlines)
	}
	p.mu.Lock()
	left := len(p.q) - p.head
	p.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d frames still queued after the burst was written", left)
	}
}

// TestWriteDeadlineRearmedSparingly checks both halves of the deadline
// rule: back-to-back frames share one armed deadline, and a peer that
// stops reading still fails the write within WriteTimeout.
func TestWriteDeadlineRearmedSparingly(t *testing.T) {
	from := transport.ServerID(0, 1)

	t.Run("one arm per quarter timeout", func(t *testing.T) {
		conn := &countingConn{}
		pc := newPeerConn(conn)
		const timeout = 80 * time.Millisecond
		for i := 0; i < burstFrames; i++ {
			if err := pc.write(from, burstMsg(i), timeout); err != nil {
				t.Fatal(err)
			}
		}
		writes, deadlines, _ := conn.counts()
		if writes != burstFrames {
			t.Fatalf("%d writes, want %d", writes, burstFrames)
		}
		if deadlines > 2 { // 2 only if the loop itself straddled a quarter
			t.Fatalf("deadline armed %d times for %d back-to-back frames", deadlines, burstFrames)
		}
		time.Sleep(timeout / 4)
		if err := pc.write(from, burstMsg(0), timeout); err != nil {
			t.Fatal(err)
		}
		if _, again, _ := conn.counts(); again != deadlines+1 {
			t.Fatalf("deadline not re-armed after a quarter of the timeout (%d arms, then %d)", deadlines, again)
		}
	})

	t.Run("stalled peer fails within the timeout", func(t *testing.T) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		accepted := make(chan net.Conn, 1)
		go func() {
			c, err := l.Accept()
			if err != nil {
				return
			}
			accepted <- c // held open, never read
		}()
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		pc := newPeerConn(c)
		defer pc.close()
		defer func() {
			select {
			case c := <-accepted:
				c.Close()
			default:
			}
		}()

		const timeout = 200 * time.Millisecond
		big := &wire.CommitReq{Writes: []wire.KV{{Key: "k", Value: make([]byte, 256<<10)}}}
		limit := time.Now().Add(10 * time.Second)
		for {
			start := time.Now()
			err := pc.write(from, big, timeout)
			if took := time.Since(start); took > timeout+150*time.Millisecond {
				t.Fatalf("a write stalled for %v, want a failure within %v", took, timeout)
			}
			if err != nil {
				if ne := net.Error(nil); !errors.As(err, &ne) || !ne.Timeout() {
					t.Fatalf("stalled write failed with %v, want a timeout", err)
				}
				return
			}
			if time.Now().After(limit) {
				t.Fatal("writes to a peer that never reads keep succeeding")
			}
		}
	})
}
