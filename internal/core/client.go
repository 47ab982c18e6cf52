package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wren/internal/ctxrelease"
	"wren/internal/hlc"
	"wren/internal/transport"
	"wren/internal/wire"
)

// Client errors.
var (
	// ErrTxOpen is returned by Begin while another transaction is open on
	// the same session (the paper's clients issue one operation at a time).
	ErrTxOpen = errors.New("core: a transaction is already open on this session")
	// ErrTxDone is returned when operating on a committed or aborted
	// transaction.
	ErrTxDone = errors.New("core: transaction already finished")
	// ErrTxExpired is returned by Read when the coordinator no longer holds
	// the transaction's context — it outlived the server's TxContextTTL, or
	// was released. Nothing was read; the transaction cannot continue and
	// should be aborted and re-run. Matched with errors.Is.
	ErrTxExpired = errors.New("core: transaction context expired on the coordinator")
	// ErrTimeout is returned when the coordinator does not answer in time.
	ErrTimeout = errors.New("core: request timed out")
	// ErrClosed is returned after the client session is closed.
	ErrClosed = errors.New("core: client closed")
	// ErrReadOnly is returned by Commit when the server refused the write
	// because its durability is degraded (a failed storage engine or
	// transaction log shed it into read-only admission). The transaction
	// did not commit; callers can retry against a different coordinator or
	// surface the outage. Matched with errors.Is.
	ErrReadOnly = errors.New("core: server is read-only (durability degraded)")
	// ErrAborted is returned by Commit when the transaction definitely did
	// not commit: the coordinator answered a termination probe "not
	// committed" and thereby fenced the transaction id, so the original
	// commit can never land late. The session may safely re-run the
	// transaction. Matched with errors.Is.
	ErrAborted = errors.New("core: transaction aborted")
	// ErrInDoubt is returned by Commit when the acknowledgement was lost
	// and every termination probe also went unanswered: the transaction may
	// or may not have committed. It wraps the original failure, so
	// errors.Is(err, ErrTimeout) still holds. Matched with errors.Is.
	ErrInDoubt = errors.New("core: commit outcome in doubt")
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

// Conn is a pooled client connection: one session's handle on a shared
// connection pool (internal/transport/pool) that multiplexes many
// sessions over a few transport endpoints. It is declared structurally so
// the client does not depend on the pool package; *pool.Conn satisfies it.
type Conn interface {
	Call(to transport.NodeID, timeout time.Duration, build func(reqID uint64) wire.Message) (wire.Message, error)
}

// ClientConfig configures a Wren client session.
type ClientConfig struct {
	// DC is the client's local data center (clients never leave it; §II-A).
	DC int
	// ClientIndex distinguishes client processes within the DC.
	ClientIndex int
	// NumPartitions is the number of partitions per DC.
	NumPartitions int
	// Network is the messaging substrate shared with the servers. May be
	// nil when Conn is set.
	Network transport.Network
	// Conn, when non-nil, binds the session to a shared connection pool:
	// round trips are issued through it — pipelined with other sessions
	// over the pool's few endpoints — and the session does not register
	// its own NodeID on the Network. Per-session ordering is preserved by
	// the pool's endpoint affinity plus this client's sequential API; see
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
	// Rand seeds coordinator selection; nil uses a time-seeded source.
	Rand *rand.Rand
}

// cacheEntry is one client-side cached write (an element of WC_c).
type cacheEntry struct {
	value []byte
	ct    hlc.Timestamp
}

// Client is a Wren client session (Algorithm 1). A session runs one
// transaction at a time; concurrent sessions use separate Clients.
type Client struct {
	cfg ClientConfig
	id  transport.NodeID
	rng *rand.Rand

	mu      sync.Mutex
	lst     hlc.Timestamp // lst_c: local snapshot time seen so far
	rst     hlc.Timestamp // rst_c: remote snapshot time seen so far
	hwt     hlc.Timestamp // hwt_c: commit time of the last update transaction
	cache   map[string]cacheEntry
	pending map[uint64]chan wire.Message
	tx      *Tx
	closed  bool

	// rel releases the contexts of transactions that ended without a COMMIT
	// round (see the package comment's release rule).
	rel *ctxrelease.Releaser

	reqSeq atomic.Uint64
}

// NewClient creates a client session and registers it on the network.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Network == nil && cfg.Conn == nil {
		return nil, fmt.Errorf("core: a network or a pooled connection is required")
	}
	if cfg.NumPartitions <= 0 {
		return nil, fmt.Errorf("core: NumPartitions must be positive")
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
		cache:   make(map[string]cacheEntry),
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

// HandleMessage implements transport.Handler, routing responses to the
// round-trip that issued them.
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
	case *wire.ScanResp:
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
// the client's DC: whether it has shed into read-only admission, and the
// first write-path failure it recorded (empty while healthy). This is the
// operator-facing path behind wren-cli's health command — degraded
// servers are observable without polling process-internal state.
func (c *Client) Health(partition int) (readOnly bool, detail string, err error) {
	if partition < 0 || partition >= c.cfg.NumPartitions {
		return false, "", fmt.Errorf("core: partition %d out of range [0,%d)", partition, c.cfg.NumPartitions)
	}
	resp, err := c.callRetry(transport.ServerID(c.cfg.DC, partition), func(reqID uint64) wire.Message {
		return &wire.HealthReq{ReqID: reqID}
	})
	if err != nil {
		return false, "", err
	}
	hr, ok := resp.(*wire.HealthResp)
	if !ok {
		return false, "", fmt.Errorf("core: unexpected response %T to HealthReq", resp)
	}
	return hr.ReadOnly, hr.Err, nil
}

// call performs one request/response round trip with the coordinator.
func (c *Client) call(to transport.NodeID, reqID uint64, m wire.Message) (wire.Message, error) {
	ch := make(chan wire.Message, 1)
	c.mu.Lock()
	c.pending[reqID] = ch
	from := c.id
	c.mu.Unlock()

	if err := c.cfg.Network.Send(from, to, m); err != nil {
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
// registered endpoint otherwise. build receives the attempt's request id
// and returns the message to send. A BusyResp — the server's admission
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
// Releaser: one empty CommitReq, sent once. It is best-effort — the
// coordinator's TTL sweep is the backstop — and must still work on a closed
// session, whose Close releases through it.
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

// Begin starts an interactive transaction (Algorithm 1, START): it obtains
// the snapshot from a coordinator and prunes the client cache of entries
// already covered by the local stable snapshot.
func (c *Client) Begin() (*Tx, error) {
	return c.BeginAt(c.cfg.CoordinatorPartition)
}

// BeginAt starts a transaction on an explicit coordinator partition; a
// negative value picks a random one (the Begin default). It is the
// failover entry point: after a read-only commit refusal a session can
// retry against a different, healthy coordinator while keeping its causal
// session state — snapshot times, write cache and hwt all carry over, so
// the retried transaction still commits strictly after everything this
// session has observed.
func (c *Client) BeginAt(coordinator int) (*Tx, error) {
	if coordinator >= c.cfg.NumPartitions {
		return nil, fmt.Errorf("core: coordinator partition %d out of range [0,%d)", coordinator, c.cfg.NumPartitions)
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
	lst, rst := c.lst, c.rst
	dc := c.cfg.DC
	c.mu.Unlock()

	// Begin is idempotent (an unanswered StartTxReq just leaves an expiring
	// context behind), so timeouts fail over to an alternate coordinator:
	// any partition in the DC can serve the snapshot. The attempt also
	// carries the release of the session's previous transaction when that
	// one ended without a COMMIT round on the same coordinator; an attempt
	// that fails hands the release to an explicit CommitReq instead.
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
		coord = transport.ServerID(dc, coordPartition)
		done := c.rel.Take(coord)
		resp, err := c.roundTrip(coord, func(reqID uint64) wire.Message {
			return &wire.StartTxReq{ReqID: reqID, LST: lst, RST: rst, Done: done}
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
			return nil, fmt.Errorf("core: unexpected response %T to StartTxReq", resp)
		}
		break
	}
	if st == nil {
		return nil, lastErr
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if st.LST > c.lst {
		c.lst = st.LST
	}
	if st.RST > c.rst {
		c.rst = st.RST
	}
	// Prune WC_c: drop every cached write already included in the causal
	// snapshot (Algorithm 1 line 6). Safe because the coordinator enforces
	// rt < lt, so any surviving entry is fresher than anything visible.
	for k, e := range c.cache {
		if e.ct <= c.lst {
			delete(c.cache, k)
		}
	}
	tx := &Tx{
		client:    c,
		coord:     coord,
		partition: coordPartition,
		id:        st.TxID,
		lt:        st.LST,
		rt:        st.RST,
		rs:        make(map[string][]byte),
	}
	c.tx = tx
	return tx, nil
}

// Close terminates the session. An open transaction is abandoned; its
// coordinator context, and that of a finished transaction still waiting
// for its release, are released best-effort off the caller's path.
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

// CacheSize returns the number of entries in the client-side write cache
// (exposed for tests and the cache-ablation benchmark).
func (c *Client) CacheSize() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cache)
}

// SnapshotTimes returns the client's current (lst_c, rst_c).
func (c *Client) SnapshotTimes() (lst, rst hlc.Timestamp) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lst, c.rst
}

// Tx is an interactive read-write transaction.
type Tx struct {
	client    *Client
	coord     transport.NodeID
	partition int // coordinator partition index
	id        uint64
	lt        hlc.Timestamp
	rt        hlc.Timestamp
	ws        map[string][]byte   // write set; allocated by the first write
	rs        map[string][]byte   // read set
	rsMiss    map[string]struct{} // keys known absent in this snapshot; allocated on first use
	done      bool

	// BlockedMicros accumulates server-reported read blocking time; always
	// zero for Wren, used by the Cure client which shares this API shape.
	BlockedMicros int64
}

// ID returns the transaction identifier assigned by the coordinator.
func (t *Tx) ID() uint64 { return t.id }

// Coordinator returns the coordinator partition this transaction ran on —
// the partition a failover retry must avoid.
func (t *Tx) Coordinator() int { return t.partition }

// Blocked returns the total time this transaction's reads spent blocked on
// servers. It is always zero in Wren — the protocol's defining property —
// and exists for API parity with the Cure baseline.
func (t *Tx) Blocked() time.Duration {
	return time.Duration(t.BlockedMicros) * time.Microsecond
}

// Snapshot returns the transaction's (local, remote) snapshot timestamps.
func (t *Tx) Snapshot() (lt, rt hlc.Timestamp) { return t.lt, t.rt }

// Read returns the values of the given keys within the transaction
// snapshot (Algorithm 1, READ). Keys never written anywhere are absent
// from the result map.
func (t *Tx) Read(keys ...string) (map[string][]byte, error) {
	if t.done {
		return nil, ErrTxDone
	}
	result := make(map[string][]byte, len(keys))
	var missing []string
	t.client.mu.Lock()
	for _, k := range keys {
		if v, ok := t.ws[k]; ok { // own uncommitted write (nil = own delete)
			if v != nil {
				result[k] = v
			}
			continue
		}
		if v, ok := t.rs[k]; ok { // repeatable read
			result[k] = v
			continue
		}
		if _, ok := t.rsMiss[k]; ok { // known absent in this snapshot
			continue
		}
		if e, ok := t.client.cache[k]; ok { // own committed write not in snapshot
			if e.value == nil {
				// Own committed delete: the key reads as absent even though
				// the tombstone may not be in the snapshot yet.
				t.markMissing(k)
				continue
			}
			result[k] = e.value
			t.rs[k] = e.value
			continue
		}
		missing = append(missing, k)
	}
	t.client.mu.Unlock()

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
		return nil, fmt.Errorf("core: unexpected response %T to TxReadReq", resp)
	}
	if rr.Expired {
		wire.PutTxReadResp(rr)
		return nil, fmt.Errorf("%w (transaction %d)", ErrTxExpired, t.id)
	}
	if rr.BlockedMicros > t.BlockedMicros {
		t.BlockedMicros = rr.BlockedMicros
	}
	t.client.mu.Lock()
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
	// Keys absent from the reply are unwritten in this snapshot: record
	// the absence so repeated reads stay stable.
	for _, k := range missing {
		if _, ok := t.rs[k]; !ok {
			t.markMissing(k)
		}
	}
	t.client.mu.Unlock()
	// The response message is pooled server-side; everything needed has
	// been copied out (values are referenced, never mutated), so the
	// session — the receiving end — releases it.
	wire.PutTxReadResp(rr)
	return result, nil
}

// markMissing records that k is absent in this snapshot. Caller holds the
// client mutex.
func (t *Tx) markMissing(k string) {
	if t.rsMiss == nil {
		t.rsMiss = make(map[string]struct{})
	}
	t.rsMiss[k] = struct{}{}
}

// ScanKV is one key/value pair yielded by Tx.Scan, in key order.
type ScanKV struct {
	Key   string
	Value []byte
}

// Scan returns every key in [start, end) visible in the transaction
// snapshot, in ascending key order, with the session's own writes
// overlaid (uncommitted writes and deletes from this transaction, plus
// committed writes from the client cache not yet covered by the
// snapshot). An empty end scans to the end of the keyspace; limit > 0
// caps the number of results. Keys are hash-sharded, so the range is
// fanned out to every partition in the client's DC and the per-partition
// sorted streams are merged; like every Wren read, the partitions answer
// from their stable snapshot without blocking.
func (t *Tx) Scan(start, end string, limit int) ([]ScanKV, error) {
	if t.done {
		return nil, ErrTxDone
	}
	c := t.client
	n := c.cfg.NumPartitions

	results := make([][]wire.Item, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			resp, err := c.callRetry(transport.ServerID(c.cfg.DC, p), func(reqID uint64) wire.Message {
				return &wire.ScanReq{
					ReqID: reqID, Start: start, End: end, Limit: uint64(limit),
					LT: t.lt, RT: t.rt,
				}
			})
			if err != nil {
				errs[p] = err
				return
			}
			sr, ok := resp.(*wire.ScanResp)
			if !ok {
				errs[p] = fmt.Errorf("core: unexpected response %T to ScanReq", resp)
				return
			}
			results[p] = sr.Items
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Session overlay: the client cache first (committed writes the
	// snapshot may not cover yet), then this transaction's write set on
	// top. A nil value is a delete and hides the key.
	inRange := func(k string) bool { return k >= start && (end == "" || k < end) }
	overlay := make(map[string][]byte)
	c.mu.Lock()
	for k, e := range c.cache {
		if inRange(k) {
			overlay[k] = e.value
		}
	}
	for k, v := range t.ws {
		if inRange(k) {
			overlay[k] = v
		}
	}
	c.mu.Unlock()
	okeys := make([]string, 0, len(overlay))
	for k := range overlay {
		okeys = append(okeys, k)
	}
	sort.Strings(okeys)

	// K-way merge of the per-partition streams (disjoint key sets, each
	// sorted) with the sorted overlay, overlay winning.
	heads := make([]int, n)
	oi := 0
	var out []ScanKV
	for {
		var minKey string
		found := false
		if oi < len(okeys) {
			minKey, found = okeys[oi], true
		}
		for p := 0; p < n; p++ {
			if heads[p] < len(results[p]) {
				if k := results[p][heads[p]].Key; !found || k < minKey {
					minKey, found = k, true
				}
			}
		}
		if !found {
			break
		}
		var val []byte
		have, fromOverlay := false, false
		if oi < len(okeys) && okeys[oi] == minKey {
			val = overlay[minKey]
			have, fromOverlay = val != nil, true
			oi++
		}
		for p := 0; p < n; p++ {
			if heads[p] < len(results[p]) && results[p][heads[p]].Key == minKey {
				if !fromOverlay {
					val, have = results[p][heads[p]].Value, true
				}
				heads[p]++
			}
		}
		if have {
			if val == nil {
				val = []byte{}
			}
			out = append(out, ScanKV{Key: minKey, Value: val})
			if limit > 0 && len(out) >= limit {
				break
			}
		}
	}
	return out, nil
}

// Write buffers updates in the transaction's write set (Algorithm 1,
// WRITE); they become visible atomically at commit. A nil value is
// normalized to an empty one — deletion is expressed via Delete.
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
// hides every older version, and once the deletion is covered by the
// stable snapshot on all partitions, GC drops the key's chain entirely.
// Within this transaction (and this session, via the client write cache)
// the key reads as absent immediately.
func (t *Tx) Delete(key string) error {
	if t.done {
		return ErrTxDone
	}
	t.buffer(key, nil)
	return nil
}

// Commit makes the write set durable and atomically visible (Algorithm 1,
// COMMIT). It returns the commit timestamp, or zero for read-only
// transactions — which, as in the paper, send no COMMIT at all: the
// transaction ends locally and its coordinator context is released per the
// package comment's release rule. After Commit the transaction cannot be
// used.
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
		return 0, fmt.Errorf("core: unexpected response %T to CommitReq", resp)
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

// finishCommit tags the write set with the commit time and moves it into
// the client cache (Algorithm 1 lines 29–31), overwriting older
// duplicates. Shared by the direct acknowledgement path and a committed
// verdict from a termination probe.
func (t *Tx) finishCommit(ct hlc.Timestamp) {
	if ct == 0 || len(t.ws) == 0 {
		return
	}
	t.client.mu.Lock()
	if ct > t.client.hwt {
		t.client.hwt = ct
	}
	for k, v := range t.ws {
		t.client.cache[k] = cacheEntry{value: v, ct: ct}
	}
	t.client.mu.Unlock()
}

// resolveCommit settles a commit whose acknowledgement was lost by
// probing the coordinator with TxStatusReq. A committed verdict recovers
// the commit timestamp and completes the session bookkeeping; a "not
// committed" verdict is final — answering it fenced the transaction id on
// the coordinator, so the original CommitReq can never land late and the
// caller may safely re-run the transaction. If every probe also goes
// unanswered (the 2PC may still be in flight, leaving the coordinator
// deliberately silent), the outcome stays ErrInDoubt.
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

// Abort abandons the transaction. Nothing is sent: the write set is
// dropped locally and the coordinator context is released per the package
// comment's release rule.
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
