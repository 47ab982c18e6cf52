package tcp

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"wren/internal/hlc"
	"wren/internal/transport"
	"wren/internal/wire"
)

// benchMsg is a representative replication frame: one transaction, two
// writes — the shape that dominates steady-state traffic.
func benchMsg() wire.Message {
	return &wire.Replicate{SrcDC: 1, Partition: 3, Txs: []wire.ReplTx{{
		TxID: 42, CT: hlc.New(1000, 1), RST: hlc.New(900, 0),
		Writes: []wire.KV{
			{Key: "user:123:profile", Value: []byte("0123456789abcdef")},
			{Key: "user:123:feed", Value: []byte("fedcba9876543210")},
		},
	}}}
}

// encodeFrameAlloc is the pre-pooling frame path, kept as the benchmark
// baseline: a fresh encoder, payload buffer and frame buffer per message.
func encodeFrameAlloc(from transport.NodeID, m wire.Message) []byte {
	payload := wire.Encode(m)
	frame := make([]byte, headerLen+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(1+4+4+len(payload)))
	frame[4] = byte(m.Kind())
	binary.BigEndian.PutUint32(frame[5:9], uint32(int32(from.DC)))
	binary.BigEndian.PutUint32(frame[9:13], uint32(int32(from.Node)))
	copy(frame[headerLen:], payload)
	return frame
}

// BenchmarkFrameEncode compares per-message allocation of the old
// (allocate-per-frame) and new (pooled encoder) framing paths.
func BenchmarkFrameEncode(b *testing.B) {
	from := transport.ServerID(0, 1)
	m := benchMsg()

	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = encodeFrameAlloc(from, m)
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enc := encPool.Get().(*wire.Encoder)
			_ = encodeFrame(enc, from, m)
			encPool.Put(enc)
		}
	})
}

// TestEncodeFrameMatchesAllocPath pins the pooled framing to the reference
// byte layout and checks a reused encoder does not leak previous frames.
func TestEncodeFrameMatchesAllocPath(t *testing.T) {
	from := transport.ServerID(2, 7)
	enc := wire.NewEncoder()
	msgs := []wire.Message{
		benchMsg(),
		&wire.Heartbeat{SrcDC: 0, Partition: 1, TS: hlc.New(5, 0)},
		benchMsg(),
	}
	for _, m := range msgs {
		want := encodeFrameAlloc(from, m)
		got := encodeFrame(enc, from, m)
		if string(got) != string(want) {
			t.Fatalf("pooled frame differs from reference for %v:\n got %x\nwant %x", m.Kind(), got, want)
		}
	}
}

// TestFrameEncodePooledSteadyStateAllocs verifies the pooled path is
// allocation-free once the pool is warm.
func TestFrameEncodePooledSteadyStateAllocs(t *testing.T) {
	from := transport.ServerID(0, 0)
	m := benchMsg()
	// Warm a private pool so parallel tests cannot steal the encoder.
	pool := sync.Pool{New: func() any { return wire.NewEncoder() }}
	enc := pool.Get().(*wire.Encoder)
	_ = encodeFrame(enc, from, m)
	allocs := testing.AllocsPerRun(100, func() {
		_ = encodeFrame(enc, from, m)
	})
	if allocs > 0 {
		t.Errorf("pooled frame encode allocates %.1f times per message, want 0", allocs)
	}
}

// TestReadFrameAllocs pins what one frame costs the receive path's
// splitter: a 20-item TxReadResp takes no more allocations than
// wire.Decode's pin for a read result (4: the message, its items, one key
// string and one value arena) — the frame is decoded where the read put
// it, and nothing is copied twice.
func TestReadFrameAllocs(t *testing.T) {
	const wirePin = 4
	items := make([]wire.Item, 20)
	for i := range items {
		items[i] = wire.Item{Key: fmt.Sprintf("user%08d", i), Value: make([]byte, 8), UT: 1 << 40, RDT: 1 << 39, TxID: uint64(i)}
	}
	m := &wire.TxReadResp{ReqID: 7, Items: items}
	frame := encodeFrame(wire.NewEncoder(), transport.ServerID(0, 1), m)
	s := newFrameSplitter()
	read := func() {
		s.filled(copy(s.space(), frame))
		_, got, err := s.next()
		if err != nil {
			t.Fatal(err)
		}
		if r, ok := got.(*wire.TxReadResp); !ok || len(r.Items) != len(items) {
			t.Fatalf("read %#v, want the 20-item TxReadResp", got)
		}
	}
	read()
	if allocs := testing.AllocsPerRun(200, read); allocs > wirePin {
		t.Fatalf("reading a 20-item TxReadResp frame allocates %.0f times, want at most %d", allocs, wirePin)
	} else {
		t.Logf("%.0f allocations per frame read", allocs)
	}
}

// TestEnsureConnLiveAllocs: the writer loop calls ensureConn on every
// wake, so on a live connection it must not allocate. A peerConn that the
// read-loop goroutine's closure captured would move to the heap on every
// call.
func TestEnsureConnLiveAllocs(t *testing.T) {
	got := make(chan struct{}, 1)
	a, err := New(Config{Self: transport.ServerID(0, 0), ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Register(transport.ServerID(0, 0), transport.HandlerFunc(
		func(transport.NodeID, wire.Message) { got <- struct{}{} }))
	b, err := New(Config{
		Self:  transport.ServerID(0, 1),
		Peers: map[transport.NodeID]string{transport.ServerID(0, 0): a.Addr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// A delivered message proves the writer loop's connection is up.
	if err := b.Send(transport.ServerID(0, 1), transport.ServerID(0, 0), &wire.Heartbeat{}); err != nil {
		t.Fatal(err)
	}
	<-got
	b.mu.Lock()
	p := b.peers[transport.ServerID(0, 0)]
	b.mu.Unlock()
	if allocs := testing.AllocsPerRun(100, func() {
		if p.ensureConn() == nil {
			t.Fatal("no live connection")
		}
	}); allocs != 0 {
		t.Fatalf("ensureConn on a live connection allocates %.2f times per call, want 0", allocs)
	}
}
