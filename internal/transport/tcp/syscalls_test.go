package tcp

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"wren/internal/hlc"
	"wren/internal/transport"
	"wren/internal/wire"
)

// countingConn is a net.Conn that serves Reads from a prepared byte stream
// (then reports EOF), collects Writes, and counts the calls a real socket
// would pay a syscall or a poller-timer update for.
type countingConn struct {
	net.Conn // nil: any method not overridden below must not be reached

	mu        sync.Mutex
	in        bytes.Reader
	out       bytes.Buffer
	reads     int
	writes    int
	deadlines int
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reads++
	return c.in.Read(p)
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

func (c *countingConn) counts() (reads, writes, deadlines, written int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reads, c.writes, c.deadlines, c.out.Len()
}

const burstFrames = 64

func burstMsg(i int) *wire.Heartbeat {
	return &wire.Heartbeat{SrcDC: 1, Partition: 2, TS: hlc.New(int64(1000+i), 0)}
}

// TestBackToBackFramesCostOneRead hands a connection 64 frames that are
// already "in the socket": the read loop must deliver all of them, in
// order, for at most two Read calls (the second one sees the end of the
// stream) — not two per frame.
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
	conn := &countingConn{}
	conn.in.Reset(stream)
	pc := newPeerConn(conn)
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
	if reads, _, _, _ := conn.counts(); reads > 2 {
		t.Fatalf("%d frames cost %d Read calls, want at most 2", burstFrames, reads)
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
		if _, _, _, written := conn.counts(); written >= len(want) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queued burst never written")
		}
		time.Sleep(time.Millisecond)
	}
	p.close()
	<-ran

	_, writes, deadlines, _ := conn.counts()
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
		_, writes, deadlines, _ := conn.counts()
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
		if _, _, again, _ := conn.counts(); again != deadlines+1 {
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
