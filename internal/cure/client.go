package cure

import (
	"fmt"
	"sync"

	"wren/internal/hlc"
	"wren/internal/session"
	"wren/internal/wire"
)

// The session runtime — round trips, retries, failover, commit resolution,
// context release — is internal/session; these are its names, so a Cure
// client and a Wren client report the same error values.
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

// ClientConfig configures a Cure client session; NumDCs sizes its
// dependency vector.
type ClientConfig = session.Config

// vectorState is the Cure half of a session: the dependency vector,
// plugged into the session runtime as its session.Protocol.
type vectorState struct {
	mu sync.Mutex
	dc int
	dv []hlc.Timestamp // client dependency vector, one entry per DC
}

// StampStart piggybacks a copy of the dependency vector on a transaction
// start.
func (v *vectorState) StampStart(req *wire.StartTxReq) {
	v.mu.Lock()
	req.DV = copyVec(v.dv)
	v.mu.Unlock()
}

// AbsorbStart raises the dependency vector to the assigned snapshot.
func (v *vectorState) AbsorbStart(st *wire.StartTxResp) {
	v.mu.Lock()
	maxInto(v.dv, st.SV)
	v.mu.Unlock()
}

// Cached always misses: a Cure client has no write cache. Its own writes
// are inside its next snapshot instead, which is what makes reads block.
func (v *vectorState) Cached(string) ([]byte, bool) { return nil, false }

// Committed folds the commit timestamp into the local DC's entry.
func (v *vectorState) Committed(_ map[string][]byte, ct hlc.Timestamp) {
	v.mu.Lock()
	v.dv[v.dc] = max(v.dv[v.dc], ct)
	v.mu.Unlock()
}

// Client is a Cure/H-Cure client session: the session runtime plus the
// Cure snapshot state. Unlike Wren clients it has no write cache; instead
// it tracks a full dependency vector that it piggybacks on transaction
// starts so its own writes are always inside its snapshots — at the cost of
// blocking reads until those snapshots install.
type Client struct {
	*session.Session
	v *vectorState
}

// NewClient creates a Cure client session and registers it on the network.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.NumDCs <= 0 || cfg.DC < 0 || cfg.DC >= cfg.NumDCs {
		return nil, fmt.Errorf("cure: DC %d outside a topology of %d DCs", cfg.DC, cfg.NumDCs)
	}
	v := &vectorState{dc: cfg.DC, dv: make([]hlc.Timestamp, cfg.NumDCs)}
	s, err := session.New(cfg, v)
	if err != nil {
		return nil, err
	}
	return &Client{Session: s, v: v}, nil
}

// Begin starts a transaction, piggybacking the client's dependency vector.
func (c *Client) Begin() (*Tx, error) {
	tx, err := c.Session.Begin()
	if err != nil {
		return nil, err
	}
	return &Tx{tx}, nil
}

// DependencyVector returns a copy of the client's causal dependency vector.
func (c *Client) DependencyVector() []hlc.Timestamp {
	c.v.mu.Lock()
	defer c.v.mu.Unlock()
	return copyVec(c.v.dv)
}

// Tx is an interactive Cure transaction: the session runtime's transaction
// plus its vector snapshot. It has no Scan: Cure's servers answer no
// ScanReq (see core.Tx.Scan for why that asymmetry is deliberate).
type Tx struct{ *session.Tx }

// SnapshotVector returns the transaction's snapshot vector.
func (t *Tx) SnapshotVector() []hlc.Timestamp { return copyVec(t.Start().SV) }
