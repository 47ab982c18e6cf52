package cure

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"wren/internal/ctxrelease"
	"wren/internal/hlc"
	"wren/internal/transport"
	"wren/internal/wire"
)

// Client errors (mirroring package core for interchangeable use).
var (
	ErrTxOpen  = errors.New("cure: a transaction is already open on this session")
	ErrTxDone  = errors.New("cure: transaction already finished")
	ErrTimeout = errors.New("cure: request timed out")
	ErrClosed  = errors.New("cure: client closed")
	// ErrTxExpired is returned by Read when the coordinator no longer holds
	// the transaction's context (see core.ErrTxExpired). Matched with
	// errors.Is.
	ErrTxExpired = errors.New("cure: transaction context expired on the coordinator")
	// ErrReadOnly is returned by Commit when the server refused the write
	// because its durability is degraded (read-only admission). Matched
	// with errors.Is; the transaction did not commit.
	ErrReadOnly = errors.New("cure: server is read-only (durability degraded)")
	// ErrAborted is returned by Commit when the transaction definitely did
	// not commit and its id has been fenced on the coordinator, so it is
	// safe to re-run. Matched with errors.Is.
	ErrAborted = errors.New("cure: transaction aborted")
	// ErrInDoubt is returned by Commit when the acknowledgement was lost
	// and every termination probe went unanswered; it wraps the original
	// failure. Matched with errors.Is.
	ErrInDoubt = errors.New("cure: commit outcome in doubt")
)

// DefaultRequestTimeout bounds each client-coordinator round trip.
const DefaultRequestTimeout = 10 * time.Second

// RetryPolicy controls how a client session reacts to timed-out or
// transiently failed round trips. The zero value disables retries and
// preserves single-attempt semantics.
type RetryPolicy struct {
	// Attempts is the number of additional tries after the first failure
	// for idempotent requests, and the number of termination probes issued
	// for an unacknowledged commit.
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

// Conn is a pooled client connection: one session's handle on a shared
// connection pool (internal/transport/pool) that multiplexes many
// sessions over a few transport endpoints. It is declared structurally so
// the client does not depend on the pool package; *pool.Conn satisfies it.
type Conn interface {
	Call(to transport.NodeID, timeout time.Duration, build func(reqID uint64) wire.Message) (wire.Message, error)
}

// ClientConfig configures a Cure client session.
type ClientConfig struct {
	DC            int
	ClientIndex   int
	NumDCs        int
	NumPartitions int
	// Network is the messaging substrate shared with the servers. May be
	// nil when Conn is set.
	Network transport.Network
	// Conn, when non-nil, binds the session to a shared connection pool
	// instead of a per-session endpoint (see core.ClientConfig.Conn).
	Conn Conn
	// CoordinatorPartition fixes the coordinator; negative picks a random
	// coordinator per transaction.
	CoordinatorPartition int
	RequestTimeout       time.Duration
	// Retry controls timeout-driven retries and commit termination
	// probing. The zero value keeps every request single-attempt.
	Retry RetryPolicy
	Rand  *rand.Rand
}

// Client is a Cure/H-Cure client session. Unlike Wren clients it has no
// write cache; instead it tracks a full dependency vector that it piggybacks
// on transaction starts so its own writes are always inside its snapshots —
// at the cost of blocking reads until those snapshots install.
type Client struct {
	cfg ClientConfig
	id  transport.NodeID
	rng *rand.Rand

	mu      sync.Mutex
	dv      []hlc.Timestamp // client dependency vector, one entry per DC
	hwt     hlc.Timestamp
	pending map[uint64]chan wire.Message
	tx      *Tx
	closed  bool

	// rel releases the contexts of transactions that ended without a COMMIT
	// round (the release rule in package core's comment).
	rel *ctxrelease.Releaser

	reqSeq atomic.Uint64
}

// NewClient creates a Cure client session and registers it on the network.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Network == nil && cfg.Conn == nil {
		return nil, fmt.Errorf("cure: a network or a pooled connection is required")
	}
	if cfg.NumPartitions <= 0 || cfg.NumDCs <= 0 {
		return nil, fmt.Errorf("cure: topology must be positive, got %dx%d", cfg.NumDCs, cfg.NumPartitions)
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	rng := cfg.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	c := &Client{
		cfg:     cfg,
		id:      transport.ClientID(cfg.DC, cfg.ClientIndex),
		rng:     rng,
		dv:      make([]hlc.Timestamp, cfg.NumDCs),
		pending: make(map[uint64]chan wire.Message),
	}
	c.rel = ctxrelease.New(c.releaseCtx)
	if cfg.Conn == nil {
		cfg.Network.Register(c.id, c)
	}
	return c, nil
}

// ID returns the client's node id.
func (c *Client) ID() transport.NodeID { return c.id }

// HandleMessage implements transport.Handler.
func (c *Client) HandleMessage(_ transport.NodeID, m wire.Message) {
	var reqID uint64
	switch msg := m.(type) {
	case *wire.StartTxResp:
		reqID = msg.ReqID
	case *wire.TxReadResp:
		reqID = msg.ReqID
	case *wire.CommitResp:
		reqID = msg.ReqID
	case *wire.HealthResp:
		reqID = msg.ReqID
	case *wire.TxStatusResp:
		reqID = msg.ReqID
	case *wire.BusyResp:
		reqID = msg.ReqID
	default:
		return
	}
	c.mu.Lock()
	ch := c.pending[reqID]
	delete(c.pending, reqID)
	c.mu.Unlock()
	if ch != nil {
		ch <- m
	}
}

// Health probes the durability/admission state of one partition server in
// the client's DC, mirroring core.Client.Health.
func (c *Client) Health(partition int) (readOnly bool, detail string, err error) {
	if partition < 0 || partition >= c.cfg.NumPartitions {
		return false, "", fmt.Errorf("cure: partition %d out of range [0,%d)", partition, c.cfg.NumPartitions)
	}
	resp, err := c.callRetry(transport.ServerID(c.cfg.DC, partition), func(reqID uint64) wire.Message {
		return &wire.HealthReq{ReqID: reqID}
	})
	if err != nil {
		return false, "", err
	}
	hr, ok := resp.(*wire.HealthResp)
	if !ok {
		return false, "", fmt.Errorf("cure: unexpected response %T to HealthReq", resp)
	}
	return hr.ReadOnly, hr.Err, nil
}

func (c *Client) call(to transport.NodeID, reqID uint64, m wire.Message) (wire.Message, error) {
	ch := make(chan wire.Message, 1)
	c.mu.Lock()
	c.pending[reqID] = ch
	c.mu.Unlock()

	if err := c.cfg.Network.Send(c.id, to, m); err != nil {
		c.mu.Lock()
		delete(c.pending, reqID)
		c.mu.Unlock()
		return nil, err
	}
	timer := time.NewTimer(c.cfg.RequestTimeout)
	defer timer.Stop()
	select {
	case resp := <-ch:
		return resp, nil
	case <-timer.C:
		c.mu.Lock()
		delete(c.pending, reqID)
		c.mu.Unlock()
		return nil, fmt.Errorf("%w (%v to %v)", ErrTimeout, m.Kind(), to)
	}
}

// roundTrip performs one request/response round trip on behalf of the
// session's API; it refuses once the session is closed.
func (c *Client) roundTrip(to transport.NodeID, build func(reqID uint64) wire.Message) (wire.Message, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	return c.exchange(to, build)
}

// exchange is the round trip itself: through the session's pooled
// connection when one is bound (cfg.Conn), over the session's own
// registered endpoint otherwise. A BusyResp — the server's admission
// pushback — surfaces as an error matching transport.ErrOverloaded, so
// retry loops back off and try again instead of hot-looping.
func (c *Client) exchange(to transport.NodeID, build func(reqID uint64) wire.Message) (wire.Message, error) {
	var resp wire.Message
	var err error
	if c.cfg.Conn != nil {
		resp, err = c.cfg.Conn.Call(to, c.cfg.RequestTimeout, build)
		if err != nil {
			if errors.Is(err, transport.ErrTimeout) {
				return nil, fmt.Errorf("%w (pooled request to %v)", ErrTimeout, to)
			}
			if errors.Is(err, transport.ErrClosed) {
				return nil, fmt.Errorf("%w (connection pool closed)", ErrClosed)
			}
			return nil, err
		}
	} else {
		reqID := c.reqSeq.Add(1)
		resp, err = c.call(to, reqID, build(reqID))
		if err != nil {
			return nil, err
		}
	}
	if _, busy := resp.(*wire.BusyResp); busy {
		return nil, fmt.Errorf("%w: %v shed the request at admission", transport.ErrOverloaded, to)
	}
	return resp, nil
}

// releaseCtx is the explicit context release handed to the session's
// Releaser: one empty CommitReq, best-effort, usable on a closed session
// (see core.Client.releaseCtx).
func (c *Client) releaseCtx(coord transport.NodeID, txID uint64) {
	_, _ = c.exchange(coord, func(reqID uint64) wire.Message {
		return &wire.CommitReq{ReqID: reqID, TxID: txID}
	})
}

// callRetry performs a round trip, retrying timed-out or transiently
// failed attempts per the session's retry policy. It is only safe for
// idempotent requests: each attempt carries a fresh request id, so a late
// response to an abandoned attempt misses the pending map and is dropped.
func (c *Client) callRetry(to transport.NodeID, build func(reqID uint64) wire.Message) (wire.Message, error) {
	var err error
	for attempt := 0; attempt <= c.cfg.Retry.Attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(c.cfg.Retry.retryDelay(attempt))
		}
		var resp wire.Message
		resp, err = c.roundTrip(to, build)
		if err == nil {
			return resp, nil
		}
		if errors.Is(err, ErrClosed) {
			return nil, err
		}
	}
	return nil, err
}

// Begin starts a transaction, piggybacking the client's dependency vector.
func (c *Client) Begin() (*Tx, error) {
	return c.BeginAt(c.cfg.CoordinatorPartition)
}

// BeginAt starts a transaction on an explicit coordinator partition; a
// negative value picks a random one (the Begin default). It is the
// failover entry point: after a read-only commit refusal a session can
// retry against a different, healthy coordinator while keeping its causal
// session state — the dependency vector carries over, so the retried
// transaction still commits strictly after everything this session has
// observed.
func (c *Client) BeginAt(coordinator int) (*Tx, error) {
	if coordinator >= c.cfg.NumPartitions {
		return nil, fmt.Errorf("cure: coordinator partition %d out of range [0,%d)", coordinator, c.cfg.NumPartitions)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if c.tx != nil {
		c.mu.Unlock()
		return nil, ErrTxOpen
	}
	dv := copyVec(c.dv)
	c.mu.Unlock()

	// Begin is idempotent (an unanswered StartTxReq just leaves an expiring
	// context behind), so timeouts fail over to an alternate coordinator.
	// As in package core, the attempt carries the release of the session's
	// previous transaction when it can, and a failed attempt hands it to an
	// explicit CommitReq.
	var st *wire.StartTxResp
	var coord transport.NodeID
	var coordPartition int
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retry.Attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(c.cfg.Retry.retryDelay(attempt))
		}
		coordPartition = coordinator
		if coordPartition < 0 {
			c.mu.Lock()
			coordPartition = c.rng.Intn(c.cfg.NumPartitions)
			c.mu.Unlock()
		} else if attempt > 0 {
			coordPartition = (coordinator + attempt) % c.cfg.NumPartitions
		}
		coord = transport.ServerID(c.cfg.DC, coordPartition)
		done := c.rel.Take(coord)
		resp, err := c.roundTrip(coord, func(reqID uint64) wire.Message {
			return &wire.StartTxReq{ReqID: reqID, DV: dv, Done: done}
		})
		if err != nil {
			c.rel.Now(coord, done)
			if errors.Is(err, ErrClosed) {
				return nil, err
			}
			lastErr = err
			continue
		}
		var ok bool
		st, ok = resp.(*wire.StartTxResp)
		if !ok {
			c.rel.Now(coord, done)
			return nil, fmt.Errorf("cure: unexpected response %T to StartTxReq", resp)
		}
		break
	}
	if st == nil {
		return nil, lastErr
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	maxInto(c.dv, st.SV)
	tx := &Tx{
		client:    c,
		coord:     coord,
		partition: coordPartition,
		id:        st.TxID,
		sv:        st.SV,
		rs:        make(map[string][]byte),
	}
	c.tx = tx
	return tx, nil
}

// Close terminates the session, releasing the coordinator context of an
// open transaction, and of a finished one still waiting for its release,
// best-effort off the caller's path.
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	tx := c.tx
	c.tx = nil
	c.mu.Unlock()
	if tx != nil {
		c.rel.Now(tx.coord, tx.id)
	}
	c.rel.Flush()
}

// DependencyVector returns a copy of the client's causal dependency vector.
func (c *Client) DependencyVector() []hlc.Timestamp {
	c.mu.Lock()
	defer c.mu.Unlock()
	return copyVec(c.dv)
}

// Tx is an interactive Cure transaction.
type Tx struct {
	client    *Client
	coord     transport.NodeID
	partition int // coordinator partition index
	id        uint64
	sv        []hlc.Timestamp
	ws        map[string][]byte   // write set; allocated by the first write
	rs        map[string][]byte   // read set
	rsMiss    map[string]struct{} // keys known absent in this snapshot; allocated on first use
	done      bool

	// BlockedMicros is the maximum time any read of this transaction spent
	// blocked on a laggard partition (Figure 3b's measured quantity).
	BlockedMicros int64
}

// ID returns the transaction id.
func (t *Tx) ID() uint64 { return t.id }

// Coordinator returns the coordinator partition this transaction ran on —
// the partition a failover retry must avoid.
func (t *Tx) Coordinator() int { return t.partition }

// SnapshotVector returns the transaction's snapshot vector.
func (t *Tx) SnapshotVector() []hlc.Timestamp { return copyVec(t.sv) }

// Blocked returns the total time this transaction's reads spent blocked.
func (t *Tx) Blocked() time.Duration {
	return time.Duration(t.BlockedMicros) * time.Microsecond
}

// Read returns the values of keys within the snapshot; reads may block
// server-side until the snapshot is installed.
func (t *Tx) Read(keys ...string) (map[string][]byte, error) {
	if t.done {
		return nil, ErrTxDone
	}
	result := make(map[string][]byte, len(keys))
	var missing []string
	for _, k := range keys {
		if v, ok := t.ws[k]; ok { // own uncommitted write (nil = own delete)
			if v != nil {
				result[k] = v
			}
			continue
		}
		if v, ok := t.rs[k]; ok {
			result[k] = v
			continue
		}
		if _, ok := t.rsMiss[k]; ok {
			continue
		}
		missing = append(missing, k)
	}
	if len(missing) == 0 {
		return result, nil
	}
	resp, err := t.client.callRetry(t.coord, func(reqID uint64) wire.Message {
		return &wire.TxReadReq{ReqID: reqID, TxID: t.id, Keys: missing}
	})
	if err != nil {
		return nil, err
	}
	rr, ok := resp.(*wire.TxReadResp)
	if !ok {
		return nil, fmt.Errorf("cure: unexpected response %T to TxReadReq", resp)
	}
	if rr.Expired {
		wire.PutTxReadResp(rr)
		return nil, fmt.Errorf("%w (transaction %d)", ErrTxExpired, t.id)
	}
	if rr.BlockedMicros > t.BlockedMicros {
		t.BlockedMicros = rr.BlockedMicros
	}
	for i := range rr.Items {
		it := &rr.Items[i]
		result[it.Key] = it.Value
		t.rs[it.Key] = it.Value
	}
	// Large read sets arrive partly as chunks: slice buffers the fan-in
	// retained by reference instead of copying into Items.
	for _, chunk := range rr.Chunks {
		for i := range chunk {
			it := &chunk[i]
			result[it.Key] = it.Value
			t.rs[it.Key] = it.Value
		}
	}
	for _, k := range missing {
		if _, ok := t.rs[k]; !ok {
			if t.rsMiss == nil {
				t.rsMiss = make(map[string]struct{})
			}
			t.rsMiss[k] = struct{}{}
		}
	}
	// The pooled response is consumed; the session releases it.
	wire.PutTxReadResp(rr)
	return result, nil
}

// Write buffers an update in the write set. A nil value is normalized to
// an empty one — deletion is expressed via Delete.
func (t *Tx) Write(key string, value []byte) error {
	if t.done {
		return ErrTxDone
	}
	if value == nil {
		value = []byte{}
	}
	t.buffer(key, value)
	return nil
}

// buffer puts one mutation into the write set; a nil value is a delete.
func (t *Tx) buffer(key string, value []byte) {
	if t.ws == nil {
		t.ws = make(map[string][]byte)
	}
	t.ws[key] = value
}

// Delete buffers a deletion of key: at commit it installs a tombstone that
// hides every older version; GC eventually drops the chain once the
// deletion is stable. Because the commit timestamp folds into the client's
// dependency vector, this client's subsequent snapshots include the
// tombstone, so the key reads as absent from then on.
func (t *Tx) Delete(key string) error {
	if t.done {
		return ErrTxDone
	}
	t.buffer(key, nil)
	return nil
}

// Commit runs the 2PC and folds the commit timestamp into the client's
// dependency vector. A transaction that wrote nothing ends locally, with no
// round trip (see core.Tx.Commit).
func (t *Tx) Commit() (hlc.Timestamp, error) {
	if t.done {
		return 0, ErrTxDone
	}
	t.done = true
	if len(t.ws) == 0 {
		t.endLocal()
		return 0, nil
	}
	defer t.client.clearTx(t)

	writes := make([]wire.KV, 0, len(t.ws))
	for k, v := range t.ws {
		writes = append(writes, wire.KV{Key: k, Value: v, Tombstone: v == nil})
	}
	t.client.mu.Lock()
	hwt := t.client.hwt
	t.client.mu.Unlock()

	var resp wire.Message
	var err error
	for attempt := 0; ; attempt++ {
		resp, err = t.client.roundTrip(t.coord, func(reqID uint64) wire.Message {
			return &wire.CommitReq{ReqID: reqID, TxID: t.id, HWT: hwt, Writes: writes}
		})
		// Overload pushback (a BusyResp, or a full transport queue) means
		// the request was shed before any processing — unlike a timeout it
		// is provably safe to resend the CommitReq after a backoff.
		if err == nil || !errors.Is(err, transport.ErrOverloaded) || attempt >= t.client.cfg.Retry.Attempts {
			break
		}
		time.Sleep(t.client.cfg.Retry.retryDelay(attempt + 1))
	}
	if err != nil {
		if errors.Is(err, ErrClosed) || errors.Is(err, transport.ErrOverloaded) ||
			t.client.cfg.Retry.Attempts <= 0 {
			return 0, err
		}
		// The acknowledgement was lost but the commit may have landed.
		// Never resend the CommitReq — re-driving an in-doubt 2PC could
		// double-apply — resolve the outcome via termination probes.
		return t.resolveCommit(err)
	}
	cr, ok := resp.(*wire.CommitResp)
	if !ok {
		return 0, fmt.Errorf("cure: unexpected response %T to CommitReq", resp)
	}
	switch cr.Code {
	case wire.CommitOK:
	case wire.CommitErrAborted:
		return 0, fmt.Errorf("%w: %s", ErrAborted, cr.Err)
	default:
		return 0, fmt.Errorf("%w: %s", ErrReadOnly, cr.Err)
	}
	t.finishCommit(cr.CT)
	return cr.CT, nil
}

// finishCommit folds the commit timestamp into the client's dependency
// vector and high-water mark. Shared by the direct acknowledgement path
// and a committed verdict from a termination probe.
func (t *Tx) finishCommit(ct hlc.Timestamp) {
	if ct == 0 || len(t.ws) == 0 {
		return
	}
	c := t.client
	c.mu.Lock()
	if ct > c.hwt {
		c.hwt = ct
	}
	if ct > c.dv[c.cfg.DC] {
		c.dv[c.cfg.DC] = ct
	}
	c.mu.Unlock()
}

// resolveCommit settles a commit whose acknowledgement was lost by
// probing the coordinator with TxStatusReq; the CommitReq is never
// resent. A "not committed" verdict fenced the transaction id on the
// coordinator, so re-running the transaction is safe; unanswered probes
// leave the outcome ErrInDoubt.
func (t *Tx) resolveCommit(cause error) (hlc.Timestamp, error) {
	c := t.client
	for attempt := 1; attempt <= c.cfg.Retry.Attempts; attempt++ {
		time.Sleep(c.cfg.Retry.retryDelay(attempt))
		resp, err := c.roundTrip(t.coord, func(reqID uint64) wire.Message {
			return &wire.TxStatusReq{ReqID: reqID, TxID: t.id}
		})
		if err != nil {
			if errors.Is(err, ErrClosed) {
				return 0, err
			}
			continue
		}
		sr, ok := resp.(*wire.TxStatusResp)
		if !ok || sr.TxID != t.id {
			continue
		}
		if sr.Committed {
			t.finishCommit(sr.CT)
			return sr.CT, nil
		}
		return 0, fmt.Errorf("%w: fenced by termination probe after %v", ErrAborted, cause)
	}
	return 0, fmt.Errorf("%w: %w", ErrInDoubt, cause)
}

// Abort abandons the transaction. Nothing is sent (see core.Tx.Abort).
func (t *Tx) Abort() error {
	if t.done {
		return ErrTxDone
	}
	t.done = true
	t.endLocal()
	return nil
}

// endLocal ends a transaction that has nothing to commit without a round
// trip, leaving its coordinator context to the session's Releaser.
func (t *Tx) endLocal() {
	t.client.clearTx(t)
	t.client.rel.Defer(t.coord, t.id)
}

func (c *Client) clearTx(t *Tx) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tx == t {
		c.tx = nil
	}
}
