package session_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"wren/internal/core"
	"wren/internal/cure"
	"wren/internal/hlc"
	"wren/internal/session"
	"wren/internal/transport"
	"wren/internal/wire"
)

// protocols are the two hook sets; every test below runs on both.
var protocols = []struct {
	name string
	open func(session.Config) (*session.Session, error)
}{
	{"wren", func(cfg session.Config) (*session.Session, error) {
		c, err := core.NewClient(cfg)
		if err != nil {
			return nil, err
		}
		return c.Session, nil
	}},
	{"cure", func(cfg session.Config) (*session.Session, error) {
		cfg.NumDCs = 2
		c, err := cure.NewClient(cfg)
		if err != nil {
			return nil, err
		}
		return c.Session, nil
	}},
}

type sent struct {
	to  transport.NodeID
	msg wire.Message
}

// fakeConn is a scripted coordinator behind the session's Conn seam. It
// answers like a healthy server unless the test's script takes the request.
type fakeConn struct {
	mu     sync.Mutex
	seq    uint64
	txSeq  uint64
	log    []sent
	script func(to transport.NodeID, m wire.Message) (resp wire.Message, err error, taken bool)
}

var errLost = fmt.Errorf("%w (scripted)", transport.ErrTimeout)

const commitTime = hlc.Timestamp(1000)

func (f *fakeConn) Call(to transport.NodeID, _ time.Duration, build func(uint64) wire.Message) (wire.Message, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq++
	m := build(f.seq)
	f.log = append(f.log, sent{to, m})
	if f.script != nil {
		if resp, err, taken := f.script(to, m); taken {
			return resp, err
		}
	}
	switch req := m.(type) {
	case *wire.StartTxReq:
		f.txSeq++
		return &wire.StartTxResp{TxID: f.txSeq, LST: 10, RST: 5, SV: []hlc.Timestamp{10, 5}}, nil
	case *wire.TxReadReq:
		return wire.GetTxReadResp(), nil
	case *wire.CommitReq:
		return &wire.CommitResp{CT: commitTime}, nil
	case *wire.TxStatusReq:
		return &wire.TxStatusResp{TxID: req.TxID}, nil
	case *wire.HealthReq:
		return &wire.HealthResp{}, nil
	}
	return nil, fmt.Errorf("fakeConn: unexpected %T", m)
}

// sentOf returns the logged requests of type M, in order.
func sentOf[M wire.Message](f *fakeConn) (out []M) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.log {
		if m, ok := s.msg.(M); ok {
			out = append(out, m)
		}
	}
	return out
}

// commits returns the logged CommitReqs that carry writes.
func (f *fakeConn) commits() (out []*wire.CommitReq) {
	for _, m := range sentOf[*wire.CommitReq](f) {
		if len(m.Writes) > 0 {
			out = append(out, m)
		}
	}
	return out
}

// released reports whether an explicit context release — a CommitReq that
// carries no writes — was sent for transaction id.
func (f *fakeConn) released(id uint64) bool {
	for _, m := range sentOf[*wire.CommitReq](f) {
		if len(m.Writes) == 0 && m.TxID == id {
			return true
		}
	}
	return false
}

func (f *fakeConn) awaitReleased(t *testing.T, id uint64) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !f.released(id); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("context of transaction %d was never released explicitly", id)
		}
	}
}

// onKind scripts one answer for every request of type M.
func onKind[M wire.Message](answer func(M) (wire.Message, error)) func(transport.NodeID, wire.Message) (wire.Message, error, bool) {
	return func(_ transport.NodeID, m wire.Message) (wire.Message, error, bool) {
		if req, ok := m.(M); ok {
			resp, err := answer(req)
			return resp, err, true
		}
		return nil, nil, false
	}
}

// forEach runs body once per hook set, on a 4-partition session pinned to
// coordinator 2 with the given retry budget and a 1 ms backoff.
func forEach(t *testing.T, attempts int, body func(t *testing.T, s *session.Session, f *fakeConn)) {
	for _, p := range protocols {
		t.Run(p.name, func(t *testing.T) {
			f := &fakeConn{}
			s, err := p.open(session.Config{
				NumPartitions: 4, Conn: f, CoordinatorPartition: 2,
				Retry: session.RetryPolicy{Attempts: attempts, Backoff: time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			body(t, s, f)
		})
	}
}

func beginWrite(t *testing.T, s *session.Session) *session.Tx {
	t.Helper()
	tx, err := s.Begin()
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	if err := tx.Write("k", []byte("v")); err != nil {
		t.Fatalf("write: %v", err)
	}
	return tx
}

// TestHooksCarrySessionState checks the seam itself: what a committed
// transaction and an assigned snapshot leave behind must come back on the
// next StartTxReq (and, for Wren, out of the write cache).
func TestHooksCarrySessionState(t *testing.T) {
	forEach(t, 0, func(t *testing.T, s *session.Session, f *fakeConn) {
		if ct, err := beginWrite(t, s).Commit(); err != nil || ct != commitTime {
			t.Fatalf("commit = %v, %v", ct, err)
		}
		tx, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		req := sentOf[*wire.StartTxReq](f)[1]
		wantKeys := "[k2 k]" // Cure asks the server: its own write is in the snapshot
		if req.DV != nil {
			if req.DV[0] != commitTime || req.DV[1] != 5 {
				t.Fatalf("dependency vector = %v, want [%v 5]", req.DV, commitTime)
			}
		} else {
			if req.LST != 10 || req.RST != 5 {
				t.Fatalf("stamped (%v, %v), want (10, 5)", req.LST, req.RST)
			}
			wantKeys = "[k2]" // Wren reads it from the write cache
		}
		got, err := tx.Read("k2", "k")
		if err != nil {
			t.Fatal(err)
		}
		if keys := fmt.Sprint(sentOf[*wire.TxReadReq](f)[0].Keys); keys != wantKeys {
			t.Fatalf("TxReadReq asked for %s, want %s", keys, wantKeys)
		}
		if v, ok := got["k"]; ok != (req.DV == nil) || (ok && string(v) != "v") {
			t.Fatalf("own committed write read as %q, %v", v, ok)
		}
		if err := tx.Write("k", []byte("v2")); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if hwt := f.commits()[1].HWT; hwt != commitTime {
			t.Fatalf("second CommitReq carries hwt %v, want %v", hwt, commitTime)
		}
	})
}

func TestBusyIsOverloadAndOnlyOverloadResendsCommit(t *testing.T) {
	forEach(t, 3, func(t *testing.T, s *session.Session, f *fakeConn) {
		busy := 2
		f.script = onKind(func(*wire.CommitReq) (wire.Message, error) {
			if busy--; busy >= 0 {
				return &wire.BusyResp{}, nil
			}
			return &wire.CommitResp{CT: commitTime}, nil
		})
		if ct, err := beginWrite(t, s).Commit(); err != nil || ct != commitTime {
			t.Fatalf("commit through two sheds = %v, %v", ct, err)
		}
		if n := len(f.commits()); n != 3 {
			t.Fatalf("CommitReq sent %d times, want 3 (two shed, one served)", n)
		}

		// A shed read surfaces as ErrOverloaded once the budget is spent.
		f.script = onKind(func(*wire.TxReadReq) (wire.Message, error) { return &wire.BusyResp{}, nil })
		tx := beginWrite(t, s)
		if _, err := tx.Read("other"); !errors.Is(err, transport.ErrOverloaded) {
			t.Fatalf("shed read = %v, want ErrOverloaded", err)
		}
		if n := len(sentOf[*wire.TxReadReq](f)); n != 4 {
			t.Fatalf("TxReadReq sent %d times, want 1 + 3 retries", n)
		}

		// A timed-out commit is never resent: probes take over.
		f.script = onKind(func(*wire.CommitReq) (wire.Message, error) { return nil, errLost })
		if _, err := tx.Commit(); !errors.Is(err, session.ErrAborted) {
			t.Fatalf("lost commit, probe says not committed = %v, want ErrAborted", err)
		}
		if n := len(f.commits()); n != 4 {
			t.Fatalf("CommitReq sent %d times in all, want 4 (the lost one not resent)", n)
		}
	})
}

func TestBeginFailoverOrderAndReleaseHandoff(t *testing.T) {
	forEach(t, 3, func(t *testing.T, s *session.Session, f *fakeConn) {
		ro, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ro.Commit(); err != nil {
			t.Fatal(err)
		}

		fail := 2
		f.script = func(_ transport.NodeID, m wire.Message) (wire.Message, error, bool) {
			if _, ok := m.(*wire.StartTxReq); ok && fail > 0 {
				fail--
				return nil, errLost, true
			}
			return nil, nil, false
		}
		tx, err := s.Begin()
		if err != nil {
			t.Fatalf("begin with two lost attempts: %v", err)
		}
		if tx.Coordinator() != 0 {
			t.Fatalf("landed on partition %d, want (2+2)%%4 = 0", tx.Coordinator())
		}
		f.mu.Lock()
		var order []string
		for _, c := range f.log[1:] { // after the read-only transaction's Begin
			if req, ok := c.msg.(*wire.StartTxReq); ok {
				order = append(order, fmt.Sprintf("p%d done=%d", c.to.Node, req.Done))
			}
		}
		f.mu.Unlock()
		if want := fmt.Sprintf("[p2 done=%d p3 done=0 p0 done=0]", ro.ID()); fmt.Sprint(order) != want {
			t.Fatalf("attempts = %v, want %s", order, want)
		}
		// The attempt that carried the release failed: it must be handed to
		// an explicit release instead of being forgotten.
		f.awaitReleased(t, ro.ID())
	})
}

func TestCommitResolutionMatrix(t *testing.T) {
	type probe func(*wire.TxStatusReq) (wire.Message, error)
	committed := func(m *wire.TxStatusReq) (wire.Message, error) {
		return &wire.TxStatusResp{TxID: m.TxID, CT: commitTime, Committed: true}, nil
	}
	fenced := func(m *wire.TxStatusReq) (wire.Message, error) {
		return &wire.TxStatusResp{TxID: m.TxID}, nil
	}
	silent := func(*wire.TxStatusReq) (wire.Message, error) { return nil, errLost }

	cases := []struct {
		name    string
		probe   probe
		wantCT  hlc.Timestamp
		wantErr error
	}{
		{"committed", committed, commitTime, nil},
		{"fenced", fenced, 0, session.ErrAborted},
		{"silent", silent, 0, session.ErrInDoubt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			forEach(t, 2, func(t *testing.T, s *session.Session, f *fakeConn) {
				probe := tc.probe
				f.script = func(_ transport.NodeID, m wire.Message) (wire.Message, error, bool) {
					switch req := m.(type) {
					case *wire.CommitReq:
						if len(req.Writes) > 0 {
							return nil, errLost, true
						}
					case *wire.TxStatusReq:
						resp, err := probe(req)
						return resp, err, true
					}
					return nil, nil, false
				}
				tx := beginWrite(t, s)
				ct, err := tx.Commit()
				if ct != tc.wantCT || !errors.Is(err, tc.wantErr) {
					t.Fatalf("commit = %v, %v; want %v, %v", ct, err, tc.wantCT, tc.wantErr)
				}
				if len(f.commits()) != 1 {
					t.Fatalf("the lost CommitReq was resent")
				}
				if tc.wantErr != session.ErrInDoubt {
					if _, err := tx.Resolve(); err != session.ErrTxDone {
						t.Fatalf("Resolve on a settled transaction = %v, want ErrTxDone", err)
					}
					return
				}
				if !errors.Is(err, session.ErrTimeout) {
					t.Fatalf("ErrInDoubt lost its cause: %v", err)
				}
				if n := len(sentOf[*wire.TxStatusReq](f)); n != 2 {
					t.Fatalf("%d probes, want Retry.Attempts = 2", n)
				}
				// Still silent: in doubt again, cause intact. Then each verdict.
				if _, err := tx.Resolve(); !errors.Is(err, session.ErrInDoubt) || !errors.Is(err, session.ErrTimeout) {
					t.Fatalf("Resolve while silent = %v, want ErrInDoubt wrapping ErrTimeout", err)
				}
				probe = committed
				if ct, err := tx.Resolve(); err != nil || ct != commitTime {
					t.Fatalf("Resolve once committed = %v, %v", ct, err)
				}
				// The bookkeeping a direct acknowledgement does was done too.
				if _, err := beginWrite(t, s).Commit(); err != nil {
					t.Fatal(err)
				}
				if hwt := f.commits()[1].HWT; hwt != commitTime {
					t.Fatalf("hwt after a resolved commit = %v, want %v", hwt, commitTime)
				}
			})
		})
	}

	t.Run("resolve to fenced", func(t *testing.T) {
		forEach(t, 1, func(t *testing.T, s *session.Session, f *fakeConn) {
			probe := silent
			f.script = func(_ transport.NodeID, m wire.Message) (wire.Message, error, bool) {
				switch req := m.(type) {
				case *wire.CommitReq:
					return nil, errLost, len(req.Writes) > 0
				case *wire.TxStatusReq:
					resp, err := probe(req)
					return resp, err, true
				}
				return nil, nil, false
			}
			tx := beginWrite(t, s)
			if _, err := tx.Commit(); !errors.Is(err, session.ErrInDoubt) {
				t.Fatalf("commit = %v, want ErrInDoubt", err)
			}
			probe = fenced
			if _, err := tx.Resolve(); !errors.Is(err, session.ErrAborted) {
				t.Fatalf("Resolve once fenced = %v, want ErrAborted", err)
			}
		})
	})
}

func TestReadOnExpiredContext(t *testing.T) {
	forEach(t, 0, func(t *testing.T, s *session.Session, f *fakeConn) {
		f.script = onKind(func(*wire.TxReadReq) (wire.Message, error) {
			resp := wire.GetTxReadResp()
			resp.Expired = true
			return resp, nil
		})
		tx := beginWrite(t, s)
		if _, err := tx.Read("gone"); !errors.Is(err, session.ErrTxExpired) {
			t.Fatalf("read on a dropped context = %v, want ErrTxExpired", err)
		}
	})
}

func TestClosedSession(t *testing.T) {
	forEach(t, 2, func(t *testing.T, s *session.Session, f *fakeConn) {
		tx := beginWrite(t, s)
		s.Close()
		if _, err := s.Begin(); err != session.ErrClosed {
			t.Fatalf("Begin after Close = %v, want ErrClosed", err)
		}
		if _, err := tx.Read("x"); !errors.Is(err, session.ErrClosed) {
			t.Fatalf("Read after Close = %v, want ErrClosed", err)
		}
		if _, err := tx.Commit(); !errors.Is(err, session.ErrClosed) {
			t.Fatalf("Commit after Close = %v, want ErrClosed", err)
		}
		if _, _, err := s.Health(0); !errors.Is(err, session.ErrClosed) {
			t.Fatalf("Health after Close = %v, want ErrClosed", err)
		}
		// Close abandoned the open transaction and released its context
		// through the connection, which must outlive the session for that.
		f.awaitReleased(t, tx.ID())
	})
	// A connection that reports itself closed ends the retries at once.
	forEach(t, 5, func(t *testing.T, s *session.Session, f *fakeConn) {
		f.script = func(transport.NodeID, wire.Message) (wire.Message, error, bool) {
			return nil, transport.ErrClosed, true
		}
		if _, err := s.Begin(); !errors.Is(err, session.ErrClosed) {
			t.Fatalf("Begin over a closed connection = %v, want ErrClosed", err)
		}
		if n := len(sentOf[*wire.StartTxReq](f)); n != 1 {
			t.Fatalf("%d attempts over a closed connection, want 1", n)
		}
	})
}

// TestOverloadedCommitReleasesContext: a commit shed on every attempt never
// reached the coordinator, which therefore still holds the context. The
// session must give it back — on the next Begin's Done, or explicitly if
// the grace period won the race — not leave it to the 30 s TTL sweep.
func TestOverloadedCommitReleasesContext(t *testing.T) {
	forEach(t, 2, func(t *testing.T, s *session.Session, f *fakeConn) {
		f.script = func(_ transport.NodeID, m wire.Message) (wire.Message, error, bool) {
			if req, ok := m.(*wire.CommitReq); ok && len(req.Writes) > 0 {
				return &wire.BusyResp{}, nil, true
			}
			return nil, nil, false
		}
		tx := beginWrite(t, s)
		if _, err := tx.Commit(); !errors.Is(err, transport.ErrOverloaded) {
			t.Fatalf("commit shed three times = %v, want ErrOverloaded", err)
		}
		if n := len(f.commits()); n != 3 {
			t.Fatalf("CommitReq sent %d times, want 1 + 2 resends", n)
		}
		if _, err := s.Begin(); err != nil {
			t.Fatal(err)
		}
		starts := sentOf[*wire.StartTxReq](f)
		if done := starts[len(starts)-1].Done; done != tx.ID() && !f.released(tx.ID()) {
			t.Fatalf("next StartTxReq.Done = %d and no explicit release: the abandoned context %d is pinned until the TTL sweep", done, tx.ID())
		}
	})
}
