// Package session is the one client session runtime (the paper's
// Algorithm 1) shared by the Wren (internal/core) and Cure/H-Cure
// (internal/cure) clients.
//
// The two protocols' clients differ only in the snapshot metadata a session
// piggybacks on a transaction start — Wren's two scalars plus its write
// cache WC_c, against Cure's dependency vector. Everything else a session
// does is protocol-independent and lives here exactly once: coordinator
// choice and Begin failover, the retried round trip and its overload
// pushback, the read-set/write-set bookkeeping of Read/Write/Delete, the
// commit with its resolution state machine (timeout → TxStatusReq probe →
// committed / fenced / in doubt), the release of finished contexts, and the
// one set of Err* sentinels. A commit's probes go to its decider: the
// coordinator, or — for a write set on one partition, which that
// partition's server commits in one phase (package replica) — that
// server. A protocol plugs in through the four hooks of the Protocol
// interface, and every round trip goes through one Conn.
//
// # Ending a transaction that wrote nothing: the release rule
//
// As in Algorithm 1, COMMIT is only sent when WS ≠ ∅. Tx.Commit with an
// empty write set, and Tx.Abort, return locally; the coordinator still
// holds the transaction's context (its snapshot, which pins the version-GC
// floor of the whole DC), and the session gives it back like this:
//
//   - The session's next Begin, when it goes to the same coordinator,
//     carries the finished transaction's id (StartTxReq.Done) and the
//     coordinator drops that context before it assigns the new snapshot. A
//     closed-loop read-only transaction is therefore two rounds, Begin and
//     Read.
//   - When that cannot happen — the next Begin targets another coordinator,
//     the carrying attempt fails, the session is closed, or no Begin follows
//     within ctxrelease.Grace (10 ms) — the session sends one explicit
//     release, an empty CommitReq, off the caller's path.
//
// The rule: a finished transaction's context MUST NOT outlive grace plus
// one round trip, whatever the session does next (an idle session must
// never hold the GC floor back for the coordinator's 30 s TxContextTTL, which
// remains only the backstop for lost messages and dead clients); and a
// context MUST NOT be released before the Commit or Abort that ends its
// transaction has returned. A commit that gives up because every attempt
// was shed at admission never reached the coordinator, so its context is
// still there and leaves by the same two routes. The bookkeeping is
// internal/ctxrelease. A read that reaches a coordinator without the
// context fails with ErrTxExpired rather than reporting its keys absent.
package session

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"wren/internal/ctxrelease"
	"wren/internal/hlc"
	"wren/internal/transport"
	"wren/internal/transport/pool"
	"wren/internal/wire"
)

// Session errors, shared by every protocol's client (core.Err* and
// cure.Err* are these same values).
var (
	// ErrTxOpen is returned by Begin while another transaction is open on
	// the same session (the paper's clients issue one operation at a time).
	ErrTxOpen = errors.New("session: a transaction is already open on this session")
	// ErrTxDone is returned when operating on a committed or aborted
	// transaction.
	ErrTxDone = errors.New("session: transaction already finished")
	// ErrTxExpired is returned by Read when the coordinator no longer holds
	// the transaction's context — it outlived the server's TxContextTTL, or
	// was released. Nothing was read; the transaction cannot continue and
	// should be aborted and re-run. Matched with errors.Is.
	ErrTxExpired = errors.New("session: transaction context expired on the coordinator")
	// ErrTimeout is returned when the coordinator does not answer in time.
	ErrTimeout = errors.New("session: request timed out")
	// ErrClosed is returned after the client session is closed.
	ErrClosed = errors.New("session: client closed")
	// ErrReadOnly is returned by Commit when the server refused the write
	// because its durability is degraded (a failed storage engine or
	// transaction log shed it into read-only admission). The transaction
	// did not commit; callers can retry against a different coordinator or
	// surface the outage. Matched with errors.Is.
	ErrReadOnly = errors.New("session: server is read-only (durability degraded)")
	// ErrAborted is returned by Commit when the transaction definitely did
	// not commit: the coordinator answered a termination probe "not
	// committed" and thereby fenced the transaction id, so the original
	// commit can never land late. The session may safely re-run the
	// transaction. Matched with errors.Is.
	ErrAborted = errors.New("session: transaction aborted")
	// ErrInDoubt is returned by Commit when the acknowledgement was lost
	// and every termination probe also went unanswered: the transaction may
	// or may not have committed, and Tx.Resolve asks again. It wraps the
	// original failure, so errors.Is(err, ErrTimeout) still holds. Matched
	// with errors.Is.
	ErrInDoubt = errors.New("session: commit outcome in doubt")
	// ErrTooLarge is returned by Write and Delete for a key or value longer
	// than wire.MaxFieldLen (4 MiB), which no server could decode: nothing
	// was buffered, and the transaction stays usable. Commit returns it for
	// a write set over wire.MaxWriteSetLen or wire.MaxWrites, which some
	// message of the commit could not carry within wire.MaxFrameLen
	// (64 MiB): nothing was sent, and the transaction is over.
	// Matched with errors.Is.
	ErrTooLarge = errors.New("session: key, value or write set too large")
)

// DefaultRequestTimeout bounds each client-coordinator round trip.
const DefaultRequestTimeout = 10 * time.Second

// RetryPolicy controls how a client session reacts to timed-out or
// transiently failed round trips. The zero value disables retries and
// preserves single-attempt semantics.
type RetryPolicy struct {
	// Attempts is the number of additional tries after the first failure
	// for idempotent requests (Begin, Read, Scan, Health), and the number
	// of termination probes issued for an unacknowledged commit. Commits
	// themselves are never resent — see Tx.Commit.
	Attempts int
	// Backoff is the delay before the first retry; it doubles per attempt
	// and is capped at 500ms. Zero selects 5ms.
	Backoff time.Duration
}

// retryDelay returns the backoff before retry number attempt (1-based).
func (rp RetryPolicy) retryDelay(attempt int) time.Duration {
	b := rp.Backoff
	if b <= 0 {
		b = 5 * time.Millisecond
	}
	d := b << uint(attempt-1)
	if max := 500 * time.Millisecond; d > max || d <= 0 {
		d = max
	}
	return d
}

// Conn is the session's only round-trip path: one request out, the
// response matched to it by request id back. It is declared structurally so
// a test can substitute a fake; *pool.Conn satisfies it, and so does a
// wrapper that traces one.
type Conn interface {
	Call(to transport.NodeID, timeout time.Duration, build func(reqID uint64) wire.Message) (wire.Message, error)
}

// Protocol is the seam between the session runtime and a snapshot
// representation: the per-protocol session state. Implementations
// synchronize themselves; the runtime calls them from the goroutine using
// the session and holds no lock of its own while it does.
type Protocol interface {
	// StampStart fills in the snapshot metadata a StartTxReq piggybacks:
	// Wren's (LST, RST), Cure's dependency vector. The request may be read
	// by another goroutine after it is sent, so anything mutable is copied.
	StampStart(req *wire.StartTxReq)
	// AbsorbStart folds the snapshot the coordinator assigned into the
	// session state.
	AbsorbStart(resp *wire.StartTxResp)
	// Cached looks key up among the session's own committed writes that a
	// snapshot may not cover yet (Wren's WC_c; Cure has none and always
	// reports false). A nil value with ok set is an own committed delete.
	Cached(key string) (value []byte, ok bool)
	// Committed folds a committed write set and its commit time into the
	// session state.
	Committed(ws map[string][]byte, ct hlc.Timestamp)
}

// Config configures a client session.
type Config struct {
	// DC is the client's local data center (clients never leave it; §II-A).
	DC int
	// ClientIndex distinguishes client processes within the DC.
	ClientIndex int
	// NumDCs is the number of data centers. Only protocols whose snapshot
	// metadata is one entry per DC (Cure's dependency vector) read it.
	NumDCs int
	// NumPartitions is the number of partitions per DC.
	NumPartitions int
	// Network is the messaging substrate shared with the servers. May be
	// nil when Conn is set. A session given only a Network registers its
	// own NodeID on it, as a private one-endpoint connection pool.
	Network transport.Network
	// Conn, when non-nil, binds the session to a shared connection pool:
	// round trips are issued through it — pipelined with other sessions
	// over the pool's few endpoints — and the session does not register
	// its own NodeID on the Network. Per-session ordering is preserved by
	// the pool's endpoint affinity plus the session's sequential API; see
	// internal/transport/pool.
	Conn Conn
	// CoordinatorPartition fixes the coordinator partition; a negative
	// value picks a random coordinator per transaction (the paper's default
	// behaviour; the evaluation collocates clients with one coordinator).
	CoordinatorPartition int
	// RequestTimeout bounds each round trip. Zero selects
	// DefaultRequestTimeout.
	RequestTimeout time.Duration
	// Retry controls timeout-driven retries and commit termination
	// probing. The zero value keeps every request single-attempt.
	Retry RetryPolicy
}

// Session is a client session (Algorithm 1). A session runs one
// transaction at a time; concurrent sessions use separate Sessions.
type Session struct {
	cfg   Config // Conn is always set: New binds a private pool when given none
	proto Protocol

	// rel releases the contexts of transactions that ended without a COMMIT
	// round (see the package comment's release rule).
	rel *ctxrelease.Releaser

	mu     sync.Mutex
	rng    *rand.Rand
	hwt    hlc.Timestamp // hwt_c: commit time of the last update transaction
	tx     *Tx
	closed bool
}

// New creates a client session that keeps its snapshot metadata in proto.
func New(cfg Config, proto Protocol) (*Session, error) {
	if cfg.Network == nil && cfg.Conn == nil {
		return nil, fmt.Errorf("session: a network or a pooled connection is required")
	}
	if cfg.NumPartitions <= 0 {
		return nil, fmt.Errorf("session: NumPartitions must be positive")
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.Conn == nil {
		// The pool is never closed: the Releaser's flush still sends
		// through it after Close.
		id := transport.ClientID(cfg.DC, cfg.ClientIndex)
		p, err := pool.New([]pool.Endpoint{{ID: id, Net: cfg.Network}})
		if err != nil {
			return nil, err
		}
		cfg.Conn = p.Bind()
	}
	s := &Session{cfg: cfg, proto: proto, rng: rand.New(rand.NewSource(time.Now().UnixNano()))}
	s.rel = ctxrelease.New(s.releaseCtx)
	return s, nil
}

// Health probes the durability/admission state of one partition server in
// the client's DC: whether it has shed into read-only admission, and the
// first write-path failure it recorded (empty while healthy). This is the
// operator-facing path behind wren-cli's health command — degraded
// servers are observable without polling process-internal state.
func (s *Session) Health(partition int) (readOnly bool, detail string, err error) {
	if partition < 0 || partition >= s.cfg.NumPartitions {
		return false, "", fmt.Errorf("session: partition %d out of range [0,%d)", partition, s.cfg.NumPartitions)
	}
	resp, err := s.callRetry(transport.ServerID(s.cfg.DC, partition), func(reqID uint64) wire.Message {
		return &wire.HealthReq{ReqID: reqID}
	})
	if err != nil {
		return false, "", err
	}
	hr, ok := resp.(*wire.HealthResp)
	if !ok {
		return false, "", fmt.Errorf("session: unexpected response %T to HealthReq", resp)
	}
	return hr.ReadOnly, hr.Err, nil
}

// roundTrip performs one request/response round trip on behalf of the
// session's API; it refuses once the session is closed.
func (s *Session) roundTrip(to transport.NodeID, build func(reqID uint64) wire.Message) (wire.Message, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	return s.exchange(to, build)
}

// exchange is the round trip itself. build receives the attempt's request
// id and returns the message to send. A BusyResp — the server's admission
// pushback — surfaces as an error matching transport.ErrOverloaded, so
// retry loops back off and try again instead of hot-looping.
func (s *Session) exchange(to transport.NodeID, build func(reqID uint64) wire.Message) (wire.Message, error) {
	resp, err := s.cfg.Conn.Call(to, s.cfg.RequestTimeout, build)
	if err != nil {
		if errors.Is(err, transport.ErrTimeout) {
			return nil, fmt.Errorf("%w (request to %v)", ErrTimeout, to)
		}
		if errors.Is(err, transport.ErrClosed) {
			return nil, fmt.Errorf("%w (connection closed)", ErrClosed)
		}
		return nil, err
	}
	if _, busy := resp.(*wire.BusyResp); busy {
		return nil, fmt.Errorf("%w: %v shed the request at admission", transport.ErrOverloaded, to)
	}
	return resp, nil
}

// releaseCtx is the explicit context release handed to the session's
// Releaser: one empty CommitReq, sent once. It is best-effort — the
// coordinator's TTL sweep is the backstop — and must still work on a closed
// session, whose Close releases through it.
func (s *Session) releaseCtx(coord transport.NodeID, txID uint64) {
	_, _ = s.exchange(coord, func(reqID uint64) wire.Message {
		return &wire.CommitReq{ReqID: reqID, TxID: txID}
	})
}

// callRetry performs a round trip, retrying timed-out or transiently
// failed attempts per the session's retry policy. It is only safe for
// idempotent requests: each attempt carries a fresh request id, so a late
// response to an abandoned attempt matches no waiting call and is dropped.
func (s *Session) callRetry(to transport.NodeID, build func(reqID uint64) wire.Message) (wire.Message, error) {
	for attempt := 0; ; attempt++ {
		resp, err := s.roundTrip(to, build)
		if err == nil || errors.Is(err, ErrClosed) || attempt >= s.cfg.Retry.Attempts {
			return resp, err
		}
		time.Sleep(s.cfg.Retry.retryDelay(attempt + 1))
	}
}

// Begin starts an interactive transaction (Algorithm 1, START) on the
// configured coordinator.
func (s *Session) Begin() (*Tx, error) {
	return s.BeginAt(s.cfg.CoordinatorPartition)
}

// BeginAt starts a transaction on an explicit coordinator partition; a
// negative value picks a random one (the Begin default). It is the
// failover entry point: after a read-only commit refusal a session can
// retry against a different, healthy coordinator while keeping its causal
// session state — the protocol's snapshot metadata and hwt all carry over,
// so the retried transaction still commits strictly after everything this
// session has observed.
func (s *Session) BeginAt(coordinator int) (*Tx, error) {
	if coordinator >= s.cfg.NumPartitions {
		return nil, fmt.Errorf("session: coordinator partition %d out of range [0,%d)", coordinator, s.cfg.NumPartitions)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if s.tx != nil {
		s.mu.Unlock()
		return nil, ErrTxOpen
	}
	s.mu.Unlock()

	// Begin is idempotent (an unanswered StartTxReq just leaves an expiring
	// context behind), so timeouts fail over to an alternate coordinator:
	// any partition in the DC can serve the snapshot. The attempt also
	// carries the release of the session's previous transaction when that
	// one ended without a COMMIT round on the same coordinator; an attempt
	// that fails hands the release to an explicit CommitReq instead.
	var lastErr error
	for attempt := 0; attempt <= s.cfg.Retry.Attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(s.cfg.Retry.retryDelay(attempt))
		}
		partition := coordinator
		if partition < 0 {
			s.mu.Lock()
			partition = s.rng.Intn(s.cfg.NumPartitions)
			s.mu.Unlock()
		} else if attempt > 0 {
			partition = (coordinator + attempt) % s.cfg.NumPartitions
		}
		coord := transport.ServerID(s.cfg.DC, partition)
		done := s.rel.Take(coord)
		resp, err := s.roundTrip(coord, func(reqID uint64) wire.Message {
			req := &wire.StartTxReq{ReqID: reqID, Done: done}
			s.proto.StampStart(req)
			return req
		})
		if err != nil {
			s.rel.Now(coord, done)
			if errors.Is(err, ErrClosed) {
				return nil, err
			}
			lastErr = err
			continue
		}
		st, ok := resp.(*wire.StartTxResp)
		if !ok {
			s.rel.Now(coord, done)
			return nil, fmt.Errorf("session: unexpected response %T to StartTxReq", resp)
		}
		s.proto.AbsorbStart(st)
		tx := &Tx{s: s, coord: coord, partition: partition, start: st, rs: make(map[string][]byte)}
		s.mu.Lock()
		s.tx = tx
		s.mu.Unlock()
		return tx, nil
	}
	return nil, lastErr
}

// Close terminates the session. An open transaction is abandoned; its
// coordinator context, and that of a finished transaction still waiting
// for its release, are released best-effort off the caller's path.
func (s *Session) Close() {
	s.mu.Lock()
	s.closed = true
	tx := s.tx
	s.tx = nil
	s.mu.Unlock()
	if tx != nil {
		s.rel.Now(tx.coord, tx.ID())
	}
	s.rel.Flush()
}

func (s *Session) clearTx(t *Tx) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tx == t {
		s.tx = nil
	}
}
