package pool

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"wren/internal/hlc"
	"wren/internal/transport"
	"wren/internal/wire"
)

// echoServer answers StartTxReq with a StartTxResp echoing the request id
// and the LST field as TxID — a per-call token the tests use to prove a
// response can only ever reach the call that issued its request.
type echoServer struct {
	net *transport.Memory
	id  transport.NodeID

	mu    sync.Mutex
	delay time.Duration
	froms []transport.NodeID
	order []uint64 // LST tokens in arrival order
	mute  bool
}

func newEchoServer(net *transport.Memory, id transport.NodeID) *echoServer {
	s := &echoServer{net: net, id: id}
	net.Register(id, s)
	return s
}

func (s *echoServer) HandleMessage(from transport.NodeID, m wire.Message) {
	req, ok := m.(*wire.StartTxReq)
	if !ok {
		return
	}
	s.mu.Lock()
	s.froms = append(s.froms, from)
	s.order = append(s.order, uint64(req.LST))
	delay, mute := s.delay, s.mute
	s.mu.Unlock()
	if mute {
		return
	}
	resp := &wire.StartTxResp{ReqID: req.ReqID, TxID: uint64(req.LST)}
	if delay > 0 {
		go func() {
			time.Sleep(delay)
			_ = s.net.Send(s.id, from, resp)
		}()
		return
	}
	_ = s.net.Send(s.id, from, resp)
}

func (s *echoServer) setDelay(d time.Duration) {
	s.mu.Lock()
	s.delay = d
	s.mu.Unlock()
}

func (s *echoServer) setMute(m bool) {
	s.mu.Lock()
	s.mute = m
	s.mu.Unlock()
}

func newTestPool(t *testing.T, net *transport.Memory, links int) *Pool {
	t.Helper()
	eps := make([]Endpoint, links)
	for i := range eps {
		eps[i] = Endpoint{ID: transport.ClientID(0, 1000+i), Net: net}
	}
	p, err := New(eps)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestConcurrentCallsExactlyOnce hammers one pool from many goroutines and
// checks every call gets back exactly the response to its own request —
// the no-cross-session-leakage property the demux exists for.
func TestConcurrentCallsExactlyOnce(t *testing.T) {
	net := transport.NewMemory(transport.UniformLatency(0, 0), 0)
	defer net.Close()
	srv := newEchoServer(net, transport.ServerID(0, 0))
	p := newTestPool(t, net, 3)
	defer p.Close()

	const goroutines, calls = 16, 50
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn := p.Bind()
			for i := 0; i < calls; i++ {
				token := uint64(g)<<32 | uint64(i)
				resp, err := conn.Call(srv.id, 5*time.Second, func(reqID uint64) wire.Message {
					return &wire.StartTxReq{ReqID: reqID, LST: hlc.Timestamp(token)}
				})
				if err != nil {
					errCh <- err
					return
				}
				st, ok := resp.(*wire.StartTxResp)
				if !ok {
					errCh <- fmt.Errorf("goroutine %d: unexpected response %T", g, resp)
					return
				}
				if st.TxID != token {
					errCh <- fmt.Errorf("goroutine %d call %d: got token %d, want %d — response leaked across calls", g, i, st.TxID, token)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if n := p.Pending(); n != 0 {
		t.Fatalf("drained pool leaks %d pending entries", n)
	}
	st := p.Stats()
	if st.Calls != goroutines*calls {
		t.Fatalf("calls = %d, want %d", st.Calls, goroutines*calls)
	}
	if st.Orphans != 0 || st.Timeouts != 0 {
		t.Fatalf("unexpected orphans=%d timeouts=%d", st.Orphans, st.Timeouts)
	}
	// Stats is a view of the pool's registry.
	if got := p.Obs().Snapshot(); got.Get("pool.calls") != st.Calls || len(got) != 3 {
		t.Fatalf("registry %v, want pool.calls, pool.orphans and pool.timeouts behind %+v", got, st)
	}
}

// TestTimeoutThenLateResponse times a call out, lets the response arrive
// late, and proves the orphan is dropped — a subsequent call on the same
// conn must receive its own response, never the stale one.
func TestTimeoutThenLateResponse(t *testing.T) {
	net := transport.NewMemory(transport.UniformLatency(0, 0), 0)
	defer net.Close()
	srv := newEchoServer(net, transport.ServerID(0, 0))
	p := newTestPool(t, net, 1)
	defer p.Close()
	conn := p.Bind()

	srv.setDelay(100 * time.Millisecond)
	_, err := conn.Call(srv.id, 5*time.Millisecond, func(reqID uint64) wire.Message {
		return &wire.StartTxReq{ReqID: reqID, LST: 1}
	})
	if !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}

	// Let the delayed response land as an orphan, then issue a fresh call.
	time.Sleep(150 * time.Millisecond)
	srv.setDelay(0)
	resp, err := conn.Call(srv.id, 5*time.Second, func(reqID uint64) wire.Message {
		return &wire.StartTxReq{ReqID: reqID, LST: 2}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.(*wire.StartTxResp).TxID; got != 2 {
		t.Fatalf("fresh call got stale token %d, want 2", got)
	}
	if st := p.Stats(); st.Timeouts != 1 || st.Orphans != 1 {
		t.Fatalf("stats = %+v, want 1 timeout and 1 orphan", st)
	}
	if n := p.Pending(); n != 0 {
		t.Fatalf("pool leaks %d pending entries", n)
	}
}

// TestTimeoutNoResponse: a request the server never answers must not leak
// a pending entry past the caller's timeout.
func TestTimeoutNoResponse(t *testing.T) {
	net := transport.NewMemory(transport.UniformLatency(0, 0), 0)
	defer net.Close()
	srv := newEchoServer(net, transport.ServerID(0, 0))
	srv.setMute(true)
	p := newTestPool(t, net, 1)
	defer p.Close()

	_, err := p.Bind().Call(srv.id, 5*time.Millisecond, func(reqID uint64) wire.Message {
		return &wire.StartTxReq{ReqID: reqID}
	})
	if !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if n := p.Pending(); n != 0 {
		t.Fatalf("timed-out call leaks %d pending entries", n)
	}
}

// TestConnEndpointAffinity: all of one Conn's requests leave via one
// endpoint, and arrive in issue order — the property that keeps a
// session's commit from overtaking its own reads.
func TestConnEndpointAffinity(t *testing.T) {
	net := transport.NewMemory(transport.UniformLatency(0, 0), 0)
	defer net.Close()
	srv := newEchoServer(net, transport.ServerID(0, 0))
	p := newTestPool(t, net, 3)
	defer p.Close()
	conn := p.Bind()

	const calls = 25
	for i := 0; i < calls; i++ {
		if _, err := conn.Call(srv.id, 5*time.Second, func(reqID uint64) wire.Message {
			return &wire.StartTxReq{ReqID: reqID, LST: hlc.Timestamp(i)}
		}); err != nil {
			t.Fatal(err)
		}
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for i, from := range srv.froms {
		if from != srv.froms[0] {
			t.Fatalf("request %d left via %v, earlier ones via %v — conn not pinned", i, from, srv.froms[0])
		}
	}
	for i, tok := range srv.order {
		if tok != uint64(i) {
			t.Fatalf("request %d arrived out of order (token %d)", i, tok)
		}
	}
}

// TestBusyRespDelivered: an admission refusal is a response like any other
// — it must reach the caller that issued the shed request.
func TestBusyRespDelivered(t *testing.T) {
	net := transport.NewMemory(transport.UniformLatency(0, 0), 0)
	defer net.Close()
	id := transport.ServerID(0, 0)
	net.Register(id, transport.HandlerFunc(func(from transport.NodeID, m wire.Message) {
		req := m.(*wire.StartTxReq)
		_ = net.Send(id, from, &wire.BusyResp{ReqID: req.ReqID})
	}))
	p := newTestPool(t, net, 1)
	defer p.Close()

	resp, err := p.Bind().Call(id, 5*time.Second, func(reqID uint64) wire.Message {
		return &wire.StartTxReq{ReqID: reqID}
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := resp.(*wire.BusyResp); !ok {
		t.Fatalf("want BusyResp, got %T", resp)
	}
}

// TestClosedPoolRefusesCalls: Close flips new calls to ErrClosed without
// touching the shared network.
func TestClosedPoolRefusesCalls(t *testing.T) {
	net := transport.NewMemory(transport.UniformLatency(0, 0), 0)
	defer net.Close()
	srv := newEchoServer(net, transport.ServerID(0, 0))
	p := newTestPool(t, net, 1)
	conn := p.Bind()
	p.Close()
	if _, err := conn.Call(srv.id, time.Second, func(reqID uint64) wire.Message {
		return &wire.StartTxReq{ReqID: reqID}
	}); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}
