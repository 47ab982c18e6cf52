package core

import (
	"fmt"
	"sort"
	"sync"

	"wren/internal/hlc"
	"wren/internal/session"
	"wren/internal/transport"
	"wren/internal/wire"
)

// The session runtime — round trips, retries, failover, commit resolution,
// context release — is internal/session; these are its names, so a Wren
// client and a Cure client report the same error values.
var (
	ErrTxOpen    = session.ErrTxOpen
	ErrTxDone    = session.ErrTxDone
	ErrTxExpired = session.ErrTxExpired
	ErrTimeout   = session.ErrTimeout
	ErrClosed    = session.ErrClosed
	ErrReadOnly  = session.ErrReadOnly
	ErrAborted   = session.ErrAborted
	ErrInDoubt   = session.ErrInDoubt
	ErrTooLarge  = session.ErrTooLarge
)

type (
	// RetryPolicy controls timeout-driven retries and commit probing.
	RetryPolicy = session.RetryPolicy
	// Conn is a pooled client connection; *pool.Conn satisfies it.
	Conn = session.Conn
	// ClientConfig configures a Wren client session (NumDCs is unused).
	ClientConfig = session.Config
)

// cacheEntry is one client-side cached write (an element of WC_c).
type cacheEntry struct {
	value []byte
	ct    hlc.Timestamp
}

// wrenState is the Wren half of a session (Algorithm 1's lst_c, rst_c and
// WC_c), plugged into the session runtime as its session.Protocol.
type wrenState struct {
	mu    sync.Mutex
	lst   hlc.Timestamp // lst_c: local snapshot time seen so far
	rst   hlc.Timestamp // rst_c: remote snapshot time seen so far
	cache map[string]cacheEntry
}

// StampStart piggybacks (lst_c, rst_c) on a transaction start.
func (w *wrenState) StampStart(req *wire.StartTxReq) {
	w.mu.Lock()
	req.LST, req.RST = w.lst, w.rst
	w.mu.Unlock()
}

// AbsorbStart advances the snapshot times and prunes the client cache of
// entries already covered by the local stable snapshot.
func (w *wrenState) AbsorbStart(st *wire.StartTxResp) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.lst = max(w.lst, st.LST)
	w.rst = max(w.rst, st.RST)
	// Prune WC_c: drop every cached write already included in the causal
	// snapshot (Algorithm 1 line 6). Safe because the coordinator enforces
	// rt < lt, so any surviving entry is fresher than anything visible.
	for k, e := range w.cache {
		if e.ct <= w.lst {
			delete(w.cache, k)
		}
	}
}

// Cached looks key up in WC_c.
func (w *wrenState) Cached(key string) ([]byte, bool) {
	w.mu.Lock()
	e, ok := w.cache[key]
	w.mu.Unlock()
	return e.value, ok
}

// Committed tags the write set with the commit time and moves it into the
// client cache (Algorithm 1 lines 29–31), overwriting older duplicates.
func (w *wrenState) Committed(ws map[string][]byte, ct hlc.Timestamp) {
	w.mu.Lock()
	for k, v := range ws {
		w.cache[k] = cacheEntry{value: v, ct: ct}
	}
	w.mu.Unlock()
}

// Client is a Wren client session (Algorithm 1): the session runtime plus
// the Wren snapshot state. A session runs one transaction at a time;
// concurrent sessions use separate Clients.
type Client struct {
	*session.Session
	w   *wrenState
	cfg ClientConfig
}

// NewClient creates a client session and registers it on the network.
func NewClient(cfg ClientConfig) (*Client, error) {
	w := &wrenState{cache: make(map[string]cacheEntry)}
	s, err := session.New(cfg, w)
	if err != nil {
		return nil, err
	}
	return &Client{Session: s, w: w, cfg: cfg}, nil
}

// Begin starts an interactive transaction (Algorithm 1, START): it obtains
// the snapshot from a coordinator and prunes the client cache of entries
// already covered by the local stable snapshot.
func (c *Client) Begin() (*Tx, error) {
	tx, err := c.Session.Begin()
	if err != nil {
		return nil, err
	}
	return &Tx{Tx: tx, client: c}, nil
}

// CacheSize returns the number of entries in the client-side write cache
// (tests read it to check the cache is pruned).
func (c *Client) CacheSize() int {
	c.w.mu.Lock()
	defer c.w.mu.Unlock()
	return len(c.w.cache)
}

// SnapshotTimes returns the client's current (lst_c, rst_c).
func (c *Client) SnapshotTimes() (lst, rst hlc.Timestamp) {
	c.w.mu.Lock()
	defer c.w.mu.Unlock()
	return c.w.lst, c.w.rst
}

// Tx is an interactive read-write Wren transaction: the session runtime's
// transaction plus what only Wren's scalar snapshot offers.
type Tx struct {
	*session.Tx
	client *Client
}

// Snapshot returns the transaction's (local, remote) snapshot timestamps.
func (t *Tx) Snapshot() (lt, rt hlc.Timestamp) {
	st := t.Start()
	return st.LST, st.RST
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
//
// Scan is deliberately Wren-only. A partition answers a ScanReq at the two
// scalars it carries, straight from its stable snapshot; Cure's servers
// have no ScanReq handler, and giving them one would mean a second blocking
// read path (park until the snapshot vector is installed) for a baseline
// the paper never scans.
func (t *Tx) Scan(start, end string, limit int) ([]ScanKV, error) {
	c := t.client
	n := c.cfg.NumPartitions
	lt, rt := t.Snapshot()

	results := make([][]wire.Item, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			resp, err := t.Call(transport.ServerID(c.cfg.DC, p), func(reqID uint64) wire.Message {
				return &wire.ScanReq{
					ReqID: reqID, Start: start, End: end, Limit: uint64(limit),
					LT: lt, RT: rt,
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
	c.w.mu.Lock()
	for k, e := range c.w.cache {
		if inRange(k) {
			overlay[k] = e.value
		}
	}
	c.w.mu.Unlock()
	for k, v := range t.WriteSet() {
		if inRange(k) {
			overlay[k] = v
		}
	}
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
