package session

import (
	"errors"
	"fmt"
	"time"

	"wren/internal/hlc"
	"wren/internal/sharding"
	"wren/internal/transport"
	"wren/internal/wire"
)

// Tx is an interactive read-write transaction.
type Tx struct {
	s         *Session
	coord     transport.NodeID
	partition int                 // coordinator partition index
	start     *wire.StartTxResp   // the coordinator's answer: id and snapshot
	ws        map[string][]byte   // write set; allocated by the first write
	rs        map[string][]byte   // read set
	rsMiss    map[string]struct{} // keys known absent in this snapshot; allocated on first use
	done      bool
	doubt     error // why Commit ended in doubt; nil unless Resolve has work to do
	// decider is the server that decides the commit, and so answers its
	// termination probes: the coordinator, or for a write set on one
	// partition that partition (see the package comment).
	decider transport.NodeID

	// BlockedMicros is the maximum time any read of this transaction spent
	// blocked on a laggard partition (Figure 3b's measured quantity). It is
	// always zero in Wren — the protocol's defining property.
	BlockedMicros int64
}

// ID returns the transaction identifier assigned by the coordinator.
func (t *Tx) ID() uint64 { return t.start.TxID }

// Coordinator returns the coordinator partition this transaction ran on —
// the partition a failover retry must avoid.
func (t *Tx) Coordinator() int { return t.partition }

// Start returns the coordinator's answer to the transaction's StartTxReq,
// which holds its snapshot in the protocol's representation. Read-only.
func (t *Tx) Start() *wire.StartTxResp { return t.start }

// WriteSet returns the transaction's buffered mutations (a nil value is a
// delete). Read-only: protocol clients overlay it on range reads.
func (t *Tx) WriteSet() map[string][]byte { return t.ws }

// Blocked returns the total time this transaction's reads spent blocked on
// servers.
func (t *Tx) Blocked() time.Duration {
	return time.Duration(t.BlockedMicros) * time.Microsecond
}

// Call performs an idempotent round trip on behalf of the open transaction,
// retried per the session's retry policy. Protocol clients build their own
// snapshot reads (Wren's Scan) on it; it may be called concurrently.
func (t *Tx) Call(to transport.NodeID, build func(reqID uint64) wire.Message) (wire.Message, error) {
	if t.done {
		return nil, ErrTxDone
	}
	return t.s.callRetry(to, build)
}

// Read returns the values of the given keys within the transaction
// snapshot (Algorithm 1, READ). Keys never written anywhere are absent
// from the result map. Under Cure the read may block server-side until the
// snapshot is installed.
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
		if v, ok := t.rs[k]; ok { // repeatable read
			result[k] = v
			continue
		}
		if _, ok := t.rsMiss[k]; ok { // known absent in this snapshot
			continue
		}
		if v, ok := t.s.proto.Cached(k); ok { // own committed write not in snapshot
			if v == nil {
				// Own committed delete: the key reads as absent even though
				// the tombstone may not be in the snapshot yet.
				t.markMissing(k)
				continue
			}
			result[k] = v
			t.rs[k] = v
			continue
		}
		missing = append(missing, k)
	}
	if len(missing) == 0 {
		return result, nil
	}
	resp, err := t.s.callRetry(t.coord, func(reqID uint64) wire.Message {
		return &wire.TxReadReq{ReqID: reqID, TxID: t.ID(), Keys: missing}
	})
	if err != nil {
		return nil, err
	}
	rr, ok := resp.(*wire.TxReadResp)
	if !ok {
		return nil, fmt.Errorf("session: unexpected response %T to TxReadReq", resp)
	}
	if rr.Expired {
		wire.PutTxReadResp(rr)
		return nil, fmt.Errorf("%w (transaction %d)", ErrTxExpired, t.ID())
	}
	if rr.BlockedMicros > t.BlockedMicros {
		t.BlockedMicros = rr.BlockedMicros
	}
	for i := range rr.Items {
		it := &rr.Items[i]
		result[it.Key] = it.Value
		t.rs[it.Key] = it.Value
	}
	// Keys absent from the reply are unwritten in this snapshot: record
	// the absence so repeated reads stay stable.
	for _, k := range missing {
		if _, ok := t.rs[k]; !ok {
			t.markMissing(k)
		}
	}
	// The response message is pooled server-side; everything needed has
	// been copied out (values are referenced, never mutated), so the
	// session — the receiving end — releases it.
	wire.PutTxReadResp(rr)
	return result, nil
}

// markMissing records that k is absent in this snapshot.
func (t *Tx) markMissing(k string) {
	if t.rsMiss == nil {
		t.rsMiss = make(map[string]struct{})
	}
	t.rsMiss[k] = struct{}{}
}

// Write buffers updates in the transaction's write set (Algorithm 1,
// WRITE); they become visible atomically at commit. A nil value is
// normalized to an empty one — deletion is expressed via Delete.
func (t *Tx) Write(key string, value []byte) error {
	if value == nil {
		value = []byte{}
	}
	return t.buffer(key, value)
}

// Delete buffers a deletion of key: at commit it installs a tombstone that
// hides every older version, and once the deletion is covered by the
// stable snapshot on all partitions, GC drops the key's chain entirely.
// Within this transaction the key reads as absent immediately, and for the
// rest of the session too: Wren's write cache holds the delete, and Cure's
// dependency vector puts the tombstone inside every later snapshot.
func (t *Tx) Delete(key string) error { return t.buffer(key, nil) }

// buffer puts one mutation into the write set; a nil value is a delete.
func (t *Tx) buffer(key string, value []byte) error {
	if t.done {
		return ErrTxDone
	}
	if len(key) > wire.MaxFieldLen || len(value) > wire.MaxFieldLen {
		return fmt.Errorf("%w: key %d bytes, value %d bytes", ErrTooLarge, len(key), len(value))
	}
	if t.ws == nil {
		t.ws = make(map[string][]byte)
	}
	t.ws[key] = value
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
	s := t.s
	defer s.clearTx(t)

	writes := make([]wire.KV, 0, len(t.ws))
	size := 0
	cohort, onePhase := -1, true
	for k, v := range t.ws {
		writes = append(writes, wire.KV{Key: k, Value: v, Tombstone: v == nil})
		size += wire.WriteLen(&writes[len(writes)-1])
		if p := sharding.PartitionOf(k, s.cfg.NumPartitions); cohort < 0 {
			cohort = p
		} else if p != cohort {
			onePhase = false
		}
	}
	t.decider = t.coord
	if onePhase {
		t.decider = transport.ServerID(s.cfg.DC, cohort)
	}
	// Every hop of the commit carries the write set (the CommitReq, each
	// cohort's PrepareReq, the Replicate to each peer DC), and no transport
	// carries a frame over wire.MaxFrameLen: a write set that one of them
	// could not carry is refused before anything is sent.
	if size > wire.MaxWriteSetLen || len(writes) > wire.MaxWrites {
		t.endLocal()
		return 0, fmt.Errorf("%w: a write set of %d writes in %d bytes, over the %d-byte or %d-write bound", ErrTooLarge, len(writes), size, wire.MaxWriteSetLen, wire.MaxWrites)
	}
	s.mu.Lock()
	hwt := s.hwt
	s.mu.Unlock()

	var resp wire.Message
	var err error
	for attempt := 0; ; attempt++ {
		resp, err = s.roundTrip(t.coord, func(reqID uint64) wire.Message {
			return &wire.CommitReq{ReqID: reqID, TxID: t.ID(), HWT: hwt, Writes: writes}
		})
		// Overload pushback (a BusyResp, or a full transport queue) means
		// the request was shed before any processing — unlike a timeout it
		// is provably safe to resend the CommitReq after a backoff.
		if err == nil || !errors.Is(err, transport.ErrOverloaded) || attempt >= s.cfg.Retry.Attempts {
			break
		}
		time.Sleep(s.cfg.Retry.retryDelay(attempt + 1))
	}
	if err != nil {
		if errors.Is(err, transport.ErrOverloaded) {
			// Every attempt was shed, so the coordinator never ran the
			// commit and still holds the context: release it like that of
			// any transaction that ended without a COMMIT round.
			t.endLocal()
			return 0, err
		}
		if errors.Is(err, ErrClosed) || s.cfg.Retry.Attempts <= 0 {
			return 0, err
		}
		// The acknowledgement was lost but the commit may have landed.
		// Never resend the CommitReq — re-driving an in-doubt 2PC could
		// double-apply — resolve the outcome via termination probes.
		return t.resolveCommit(err)
	}
	cr, ok := resp.(*wire.CommitResp)
	if !ok {
		return 0, fmt.Errorf("session: unexpected response %T to CommitReq", resp)
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

// finishCommit folds a commit into the session state: hwt here, the write
// set into the protocol's (Algorithm 1 lines 29–31 for Wren's cache).
// Shared by the direct acknowledgement path and a committed verdict from a
// termination probe.
func (t *Tx) finishCommit(ct hlc.Timestamp) {
	if ct == 0 {
		return
	}
	t.s.mu.Lock()
	if ct > t.s.hwt {
		t.s.hwt = ct
	}
	t.s.mu.Unlock()
	t.s.proto.Committed(t.ws, ct)
}

// resolveCommit settles a commit whose acknowledgement was lost by
// probing its decider with TxStatusReq. A committed verdict recovers
// the commit timestamp and completes the session bookkeeping; a "not
// committed" verdict is final — answering it fenced the transaction id on
// the decider, so the original commit can never land late and the caller
// may safely re-run the transaction. If every probe also goes unanswered
// (the commit may still be in flight, leaving the decider deliberately
// silent), the outcome stays ErrInDoubt.
func (t *Tx) resolveCommit(cause error) (hlc.Timestamp, error) {
	s := t.s
	t.doubt = cause
	for attempt := 1; attempt <= s.cfg.Retry.Attempts; attempt++ {
		time.Sleep(s.cfg.Retry.retryDelay(attempt))
		resp, err := s.roundTrip(t.decider, func(reqID uint64) wire.Message {
			return &wire.TxStatusReq{ReqID: reqID, TxID: t.ID()}
		})
		if err != nil {
			if errors.Is(err, ErrClosed) {
				return 0, err
			}
			continue
		}
		sr, ok := resp.(*wire.TxStatusResp)
		if !ok || sr.TxID != t.ID() {
			continue
		}
		t.doubt = nil
		if sr.Committed {
			t.finishCommit(sr.CT)
			return sr.CT, nil
		}
		return 0, fmt.Errorf("%w: fenced by termination probe after %v", ErrAborted, cause)
	}
	return 0, fmt.Errorf("%w: %w", ErrInDoubt, cause)
}

// Resolve is the follow-up to a Commit that returned ErrInDoubt: it probes
// the decider again, with the same verdicts as Commit's own probes —
// the commit timestamp once the transaction is known committed, ErrAborted
// once it is fenced, ErrInDoubt again while the coordinator stays silent.
// On any other transaction it returns ErrTxDone.
func (t *Tx) Resolve() (hlc.Timestamp, error) {
	if t.doubt == nil {
		return 0, ErrTxDone
	}
	return t.resolveCommit(t.doubt)
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

// endLocal ends a transaction whose context the coordinator still holds
// without a round trip, leaving the context to the session's Releaser.
func (t *Tx) endLocal() {
	t.s.clearTx(t)
	t.s.rel.Defer(t.coord, t.ID())
}
