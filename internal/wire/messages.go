package wire

import (
	"fmt"

	"wren/internal/hlc"
)

// Kind identifies a message type on the wire.
type Kind uint8

// Message kinds. Values are part of the wire format; do not reorder.
const (
	KindStartTxReq Kind = iota + 1
	KindStartTxResp
	KindTxReadReq
	KindTxReadResp
	KindCommitReq
	KindCommitResp
	KindSliceReq
	KindSliceResp
	KindPrepareReq
	KindPrepareResp
	KindCommitTx
	KindReplicate
	KindHeartbeat
	KindStableBroadcast
	KindGCBroadcast
	KindCommitAck
	KindReplicateAck
	KindHealthReq
	KindHealthResp
	KindTxStatusReq
	KindTxStatusResp
	KindScanReq
	KindScanResp
	KindBusyResp
)

// String implements fmt.Stringer for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindStartTxReq:
		return "StartTxReq"
	case KindStartTxResp:
		return "StartTxResp"
	case KindTxReadReq:
		return "TxReadReq"
	case KindTxReadResp:
		return "TxReadResp"
	case KindCommitReq:
		return "CommitReq"
	case KindCommitResp:
		return "CommitResp"
	case KindSliceReq:
		return "SliceReq"
	case KindSliceResp:
		return "SliceResp"
	case KindPrepareReq:
		return "PrepareReq"
	case KindPrepareResp:
		return "PrepareResp"
	case KindCommitTx:
		return "CommitTx"
	case KindReplicate:
		return "Replicate"
	case KindHeartbeat:
		return "Heartbeat"
	case KindStableBroadcast:
		return "StableBroadcast"
	case KindGCBroadcast:
		return "GCBroadcast"
	case KindCommitAck:
		return "CommitAck"
	case KindReplicateAck:
		return "ReplicateAck"
	case KindHealthReq:
		return "HealthReq"
	case KindHealthResp:
		return "HealthResp"
	case KindTxStatusReq:
		return "TxStatusReq"
	case KindTxStatusResp:
		return "TxStatusResp"
	case KindScanReq:
		return "ScanReq"
	case KindScanResp:
		return "ScanResp"
	case KindBusyResp:
		return "BusyResp"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Class groups message kinds for byte accounting (paper Figure 7a).
type Class uint8

// Accounting classes.
const (
	// ClassClient covers client<->coordinator traffic.
	ClassClient Class = iota + 1
	// ClassTransaction covers intra-DC coordinator<->cohort traffic
	// (slice reads, 2PC prepare/commit).
	ClassTransaction
	// ClassReplication covers inter-DC update propagation and heartbeats.
	ClassReplication
	// ClassStabilization covers intra-DC stable-time gossip
	// (BiST in Wren, vector exchange in Cure).
	ClassStabilization
	// ClassControl covers garbage-collection coordination.
	ClassControl
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassClient:
		return "client"
	case ClassTransaction:
		return "transaction"
	case ClassReplication:
		return "replication"
	case ClassStabilization:
		return "stabilization"
	case ClassControl:
		return "control"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Message is implemented by every wire message.
type Message interface {
	Kind() Kind
	Class() Class
	encodeTo(e *Encoder)
	decodeFrom(d *Decoder)
}

// Item is a versioned key-value pair as shipped to clients and replicas.
// It mirrors the paper's tuple ⟨k, v, ut, rdt, id_T, sr⟩. For Cure/H-Cure,
// DV carries the M-entry dependency vector instead of (UT, RDT); Wren items
// leave DV nil — that difference is exactly the BDT metadata saving.
type Item struct {
	Key   string
	Value []byte
	UT    hlc.Timestamp // update (commit) time; summarizes local deps
	RDT   hlc.Timestamp // remote dependency time; summarizes remote deps
	TxID  uint64
	SrcDC uint8
	DV    []hlc.Timestamp // Cure only: one entry per DC
}

func (it *Item) encodeTo(e *Encoder) {
	e.String(it.Key)
	e.BytesField(it.Value)
	e.Timestamp(it.UT)
	e.Timestamp(it.RDT)
	e.Uvarint(it.TxID)
	e.Byte(it.SrcDC)
	e.Timestamps(it.DV)
}

func (it *Item) decodeFrom(d *Decoder) {
	it.Key = d.String()
	it.Value = append([]byte(nil), d.BytesField()...)
	it.UT = d.Timestamp()
	it.RDT = d.Timestamp()
	it.TxID = d.Uvarint()
	it.SrcDC = d.Byte()
	it.DV = d.Timestamps()
}

// KV is a raw write buffered in a transaction's write set. Tombstone marks
// a delete: the write installs the store's deletion marker (a nil-valued
// version) instead of a value. The flag is explicit on the wire because a
// zero-length Value cannot distinguish "empty value" from "deleted" after
// decoding.
type KV struct {
	Key       string
	Value     []byte
	Tombstone bool
}

// VersionValue returns the value a storage engine should keep for this
// write: nil for a tombstone (the engine's deletion marker), a non-nil
// slice — possibly empty — otherwise.
func (kv KV) VersionValue() []byte {
	if kv.Tombstone {
		return nil
	}
	if kv.Value == nil {
		return []byte{}
	}
	return kv.Value
}

func encodeKVs(e *Encoder, kvs []KV) {
	e.Uvarint(uint64(len(kvs)))
	for i := range kvs {
		e.String(kvs[i].Key)
		e.BytesField(kvs[i].Value)
		e.Bool(kvs[i].Tombstone)
	}
}

func decodeKVs(d *Decoder) []KV {
	n := d.Uvarint()
	if !d.checkLen(n) || n == 0 {
		return nil
	}
	out := make([]KV, n)
	for i := range out {
		out[i].Key = d.String()
		out[i].Value = append([]byte(nil), d.BytesField()...)
		out[i].Tombstone = d.Bool()
	}
	return out
}

func encodeItems(e *Encoder, items []Item) {
	e.Uvarint(uint64(len(items)))
	for i := range items {
		items[i].encodeTo(e)
	}
}

func decodeItems(d *Decoder) []Item {
	n := d.Uvarint()
	if !d.checkLen(n) || n == 0 {
		return nil
	}
	out := make([]Item, n)
	for i := range out {
		out[i].decodeFrom(d)
	}
	return out
}

// Stab is the stabilization metadata that rides on the five intra-DC
// transaction messages (SliceReq, SliceResp, PrepareReq, PrepareResp,
// CommitTx): BiST's two scalars plus the demand rule that keeps an idle
// partition from pinning the DC's stable time to its ΔR tick.
//
// Local and RemoteMin are the sender's PUBLISHED version-clock entries (what
// a StableBroadcast would carry), never a clock reading. Seen is the highest
// commit timestamp the sender has heard of; a receiver whose local version
// clock is below it has something to install. Every field is folded by
// max-merge, so duplicated, reordered or delayed carriers are harmless. The
// zero value — Cure and H-Cure stamp nothing — costs one byte on the wire.
type Stab struct {
	Local     hlc.Timestamp
	RemoteMin hlc.Timestamp
	Seen      hlc.Timestamp
}

func (s *Stab) encodeTo(e *Encoder) {
	if *s == (Stab{}) {
		e.Bool(false)
		return
	}
	e.Bool(true)
	e.Timestamp(s.Local)
	e.Timestamp(s.RemoteMin)
	e.Timestamp(s.Seen)
}

func (s *Stab) decodeFrom(d *Decoder) {
	*s = Stab{}
	if d.Bool() {
		s.Local = d.Timestamp()
		s.RemoteMin = d.Timestamp()
		s.Seen = d.Timestamp()
	}
}

// StartTxReq opens a transaction (Alg. 1 line 2). Wren clients piggyback
// their last seen LST/RST; Cure clients piggyback their dependency vector.
type StartTxReq struct {
	ReqID uint64
	LST   hlc.Timestamp
	RST   hlc.Timestamp
	DV    []hlc.Timestamp // Cure: client's causal dependency vector
	// Done, when non-zero, is the id of the session's previous transaction
	// on this coordinator, which finished without a COMMIT round (empty
	// write set or abort): the coordinator drops that context before it
	// assigns the new snapshot. Transaction ids are never zero.
	Done uint64
}

// Kind implements Message.
func (*StartTxReq) Kind() Kind { return KindStartTxReq }

// Class implements Message.
func (*StartTxReq) Class() Class { return ClassClient }

func (m *StartTxReq) encodeTo(e *Encoder) {
	e.Uvarint(m.ReqID)
	e.Timestamp(m.LST)
	e.Timestamp(m.RST)
	e.Timestamps(m.DV)
	e.Uvarint(m.Done)
}

func (m *StartTxReq) decodeFrom(d *Decoder) {
	m.ReqID = d.Uvarint()
	m.LST = d.Timestamp()
	m.RST = d.Timestamp()
	m.DV = d.Timestamps()
	m.Done = d.Uvarint()
}

// StartTxResp carries the transaction id and snapshot (Alg. 2 line 6).
type StartTxResp struct {
	ReqID uint64
	TxID  uint64
	LST   hlc.Timestamp   // Wren: local snapshot time
	RST   hlc.Timestamp   // Wren: remote snapshot time
	SV    []hlc.Timestamp // Cure: snapshot vector, one entry per DC
}

// Kind implements Message.
func (*StartTxResp) Kind() Kind { return KindStartTxResp }

// Class implements Message.
func (*StartTxResp) Class() Class { return ClassClient }

func (m *StartTxResp) encodeTo(e *Encoder) {
	e.Uvarint(m.ReqID)
	e.Uvarint(m.TxID)
	e.Timestamp(m.LST)
	e.Timestamp(m.RST)
	e.Timestamps(m.SV)
}

func (m *StartTxResp) decodeFrom(d *Decoder) {
	m.ReqID = d.Uvarint()
	m.TxID = d.Uvarint()
	m.LST = d.Timestamp()
	m.RST = d.Timestamp()
	m.SV = d.Timestamps()
}

// TxReadReq asks the coordinator to read a set of keys within a transaction.
type TxReadReq struct {
	ReqID uint64
	TxID  uint64
	Keys  []string
}

// Kind implements Message.
func (*TxReadReq) Kind() Kind { return KindTxReadReq }

// Class implements Message.
func (*TxReadReq) Class() Class { return ClassClient }

func (m *TxReadReq) encodeTo(e *Encoder) {
	e.Uvarint(m.ReqID)
	e.Uvarint(m.TxID)
	e.Strings(m.Keys)
}

func (m *TxReadReq) decodeFrom(d *Decoder) {
	m.ReqID = d.Uvarint()
	m.TxID = d.Uvarint()
	m.Keys = d.Strings()
}

// TxReadResp returns the items visible in the transaction snapshot.
// Missing keys are simply absent from Items.
type TxReadResp struct {
	ReqID uint64
	// Expired reports that the coordinator holds no context for the
	// transaction (expired, released, or never started there): nothing was
	// read, and the empty Items say nothing about which keys exist.
	Expired bool
	Items   []Item
	// Chunks are extra item slices folded in by reference for very large
	// read sets: instead of copying a big SliceResp's items into Items
	// (one monolithic append), the fan-in detaches the arriving buffer and
	// retains it whole. The field is wire-transparent — encoding flattens
	// Items then Chunks into one item sequence and decoding always yields
	// a flat Items — so only in-process consumers see chunks. Readers must
	// iterate Items AND every chunk.
	Chunks [][]Item
	// BlockedMicros is the maximum time any constituent slice read spent
	// blocked waiting for a snapshot to be installed (Cure/H-Cure only;
	// always 0 in Wren). Feeds the paper's Figure 3b.
	BlockedMicros int64
}

// Kind implements Message.
func (*TxReadResp) Kind() Kind { return KindTxReadResp }

// Class implements Message.
func (*TxReadResp) Class() Class { return ClassClient }

func (m *TxReadResp) encodeTo(e *Encoder) {
	e.Uvarint(m.ReqID)
	n := len(m.Items)
	for _, c := range m.Chunks {
		n += len(c)
	}
	e.Uvarint(uint64(n))
	for i := range m.Items {
		m.Items[i].encodeTo(e)
	}
	for _, c := range m.Chunks {
		for i := range c {
			c[i].encodeTo(e)
		}
	}
	e.Uvarint(uint64(m.BlockedMicros))
	e.Bool(m.Expired)
}

func (m *TxReadResp) decodeFrom(d *Decoder) {
	m.ReqID = d.Uvarint()
	m.Items = decodeItems(d)
	m.BlockedMicros = int64(d.Uvarint())
	m.Expired = d.Bool()
}

// CommitReq ships the write set to the coordinator (Alg. 1 line 27).
type CommitReq struct {
	ReqID  uint64
	TxID   uint64
	HWT    hlc.Timestamp // client's highest write (last commit) time
	Writes []KV
}

// Kind implements Message.
func (*CommitReq) Kind() Kind { return KindCommitReq }

// Class implements Message.
func (*CommitReq) Class() Class { return ClassClient }

func (m *CommitReq) encodeTo(e *Encoder) {
	e.Uvarint(m.ReqID)
	e.Uvarint(m.TxID)
	e.Timestamp(m.HWT)
	encodeKVs(e, m.Writes)
}

func (m *CommitReq) decodeFrom(d *Decoder) {
	m.ReqID = d.Uvarint()
	m.TxID = d.Uvarint()
	m.HWT = d.Timestamp()
	m.Writes = decodeKVs(d)
}

// Commit error codes carried by CommitResp. Values are part of the wire
// format; do not reorder.
const (
	// CommitOK means the transaction committed (or was read-only).
	CommitOK uint8 = iota
	// CommitErrReadOnly means the server refused the write: its durability
	// is degraded (a failed storage engine or transaction log) and it has
	// shed into read-only admission. Clients surface this as a typed error
	// so callers can retry against a healthy replica.
	CommitErrReadOnly
	// CommitErrAborted means the transaction is fenced: a termination
	// probe already answered "not committed" for this id, so a late or
	// duplicated CommitReq must be refused — otherwise a client that
	// failed over after the probe could see its transaction applied twice.
	CommitErrAborted
)

// CommitResp returns the commit timestamp, or a typed refusal when the
// server is in read-only admission.
type CommitResp struct {
	ReqID uint64
	CT    hlc.Timestamp
	Code  uint8  // CommitOK, CommitErrReadOnly or CommitErrAborted
	Err   string // human-readable detail when Code != CommitOK
}

// Kind implements Message.
func (*CommitResp) Kind() Kind { return KindCommitResp }

// Class implements Message.
func (*CommitResp) Class() Class { return ClassClient }

func (m *CommitResp) encodeTo(e *Encoder) {
	e.Uvarint(m.ReqID)
	e.Timestamp(m.CT)
	e.Byte(m.Code)
	e.String(m.Err)
}

func (m *CommitResp) decodeFrom(d *Decoder) {
	m.ReqID = d.Uvarint()
	m.CT = d.Timestamp()
	m.Code = d.Byte()
	m.Err = d.String()
}

// SliceReq is the coordinator-to-cohort read (Alg. 2 line 12). Wren sends
// the (lt, rt) snapshot; Cure sends the snapshot vector SV.
type SliceReq struct {
	ReqID uint64
	Keys  []string
	LT    hlc.Timestamp
	RT    hlc.Timestamp
	SV    []hlc.Timestamp
	Stab  Stab
}

// Kind implements Message.
func (*SliceReq) Kind() Kind { return KindSliceReq }

// Class implements Message.
func (*SliceReq) Class() Class { return ClassTransaction }

func (m *SliceReq) encodeTo(e *Encoder) {
	e.Uvarint(m.ReqID)
	e.Strings(m.Keys)
	e.Timestamp(m.LT)
	e.Timestamp(m.RT)
	e.Timestamps(m.SV)
	m.Stab.encodeTo(e)
}

func (m *SliceReq) decodeFrom(d *Decoder) {
	m.ReqID = d.Uvarint()
	m.Keys = d.Strings()
	m.LT = d.Timestamp()
	m.RT = d.Timestamp()
	m.SV = d.Timestamps()
	m.Stab.decodeFrom(d)
}

// SliceResp returns the freshest visible versions for a slice read.
type SliceResp struct {
	ReqID         uint64
	Items         []Item
	BlockedMicros int64 // time the read spent blocked (Cure/H-Cure)
	Stab          Stab
}

// Kind implements Message.
func (*SliceResp) Kind() Kind { return KindSliceResp }

// Class implements Message.
func (*SliceResp) Class() Class { return ClassTransaction }

func (m *SliceResp) encodeTo(e *Encoder) {
	e.Uvarint(m.ReqID)
	encodeItems(e, m.Items)
	e.Uvarint(uint64(m.BlockedMicros))
	m.Stab.encodeTo(e)
}

func (m *SliceResp) decodeFrom(d *Decoder) {
	m.ReqID = d.Uvarint()
	m.Items = decodeItems(d)
	m.BlockedMicros = int64(d.Uvarint())
	m.Stab.decodeFrom(d)
}

// PrepareReq is the first phase of the 2PC commit (Alg. 2 line 22).
type PrepareReq struct {
	ReqID  uint64
	TxID   uint64
	LT     hlc.Timestamp // transaction's local snapshot time
	RT     hlc.Timestamp // transaction's remote snapshot time
	HT     hlc.Timestamp // max timestamp seen by the client
	SV     []hlc.Timestamp
	Writes []KV
	Stab   Stab
}

// Kind implements Message.
func (*PrepareReq) Kind() Kind { return KindPrepareReq }

// Class implements Message.
func (*PrepareReq) Class() Class { return ClassTransaction }

func (m *PrepareReq) encodeTo(e *Encoder) {
	e.Uvarint(m.ReqID)
	e.Uvarint(m.TxID)
	e.Timestamp(m.LT)
	e.Timestamp(m.RT)
	e.Timestamp(m.HT)
	e.Timestamps(m.SV)
	encodeKVs(e, m.Writes)
	m.Stab.encodeTo(e)
}

func (m *PrepareReq) decodeFrom(d *Decoder) {
	m.ReqID = d.Uvarint()
	m.TxID = d.Uvarint()
	m.LT = d.Timestamp()
	m.RT = d.Timestamp()
	m.HT = d.Timestamp()
	m.SV = d.Timestamps()
	m.Writes = decodeKVs(d)
	m.Stab.decodeFrom(d)
}

// PrepareResp carries the cohort's proposed commit timestamp, or a
// non-empty Err when the cohort refused the prepare (degraded durability:
// the cohort could not log the write set, so the coordinator must abort).
type PrepareResp struct {
	ReqID uint64
	TxID  uint64
	PT    hlc.Timestamp
	Err   string
	Stab  Stab
}

// Kind implements Message.
func (*PrepareResp) Kind() Kind { return KindPrepareResp }

// Class implements Message.
func (*PrepareResp) Class() Class { return ClassTransaction }

func (m *PrepareResp) encodeTo(e *Encoder) {
	e.Uvarint(m.ReqID)
	e.Uvarint(m.TxID)
	e.Timestamp(m.PT)
	e.String(m.Err)
	m.Stab.encodeTo(e)
}

func (m *PrepareResp) decodeFrom(d *Decoder) {
	m.ReqID = d.Uvarint()
	m.TxID = d.Uvarint()
	m.PT = d.Timestamp()
	m.Err = d.String()
	m.Stab.decodeFrom(d)
}

// CommitTx is the second phase of the 2PC commit (Alg. 2 line 26). A zero
// CT aborts: the cohort drops the prepared transaction instead of
// committing it (used when a degraded cohort refused its prepare). After a
// restart, coordinators re-send CommitTx for every unresolved logged
// decision; cohorts deduplicate by transaction id.
type CommitTx struct {
	TxID uint64
	CT   hlc.Timestamp
	Stab Stab
}

// Kind implements Message.
func (*CommitTx) Kind() Kind { return KindCommitTx }

// Class implements Message.
func (*CommitTx) Class() Class { return ClassTransaction }

func (m *CommitTx) encodeTo(e *Encoder) {
	e.Uvarint(m.TxID)
	e.Timestamp(m.CT)
	m.Stab.encodeTo(e)
}

func (m *CommitTx) decodeFrom(d *Decoder) {
	m.TxID = d.Uvarint()
	m.CT = d.Timestamp()
	m.Stab.decodeFrom(d)
}

// ReplTx is one committed transaction inside a replication batch.
type ReplTx struct {
	TxID   uint64
	CT     hlc.Timestamp   // commit time (= ut of all written items)
	RST    hlc.Timestamp   // remote dependency time of all written items
	DV     []hlc.Timestamp // Cure: dependency vector
	Writes []KV
}

// Replicate propagates applied transactions to the peer replicas of the
// same partition in remote DCs (Alg. 4 line 14). Transactions with equal
// commit timestamps are packed into one message, as in the paper.
//
// Resync marks a re-sent batch: after a restart, the sender replays the
// committed transactions above the receiver's replication cursor, and the
// receiver deduplicates each transaction against its storage engine before
// applying — ordinary batches skip that check, keeping the steady-state
// apply path untouched.
type Replicate struct {
	SrcDC     uint8
	Partition uint16
	Resync    bool
	// Prev chains ordinary batches per destination: the commit timestamp
	// of the last transaction the sender previously shipped to this DC
	// (zero when unknown, e.g. the first batch after a restart). A
	// receiver whose watermark is below Prev is missing an earlier batch
	// and must refuse this one unacknowledged, so the sender's stalled
	// replication cursor triggers a dedupe-safe resync instead of the
	// stream silently applying past a gap. Resync batches are replayed
	// from the cursor in order and carry no chain.
	Prev hlc.Timestamp
	Txs  []ReplTx
}

// Kind implements Message.
func (*Replicate) Kind() Kind { return KindReplicate }

// Class implements Message.
func (*Replicate) Class() Class { return ClassReplication }

func (m *Replicate) encodeTo(e *Encoder) {
	e.Byte(m.SrcDC)
	e.Uvarint(uint64(m.Partition))
	e.Bool(m.Resync)
	e.Timestamp(m.Prev)
	e.Uvarint(uint64(len(m.Txs)))
	for i := range m.Txs {
		t := &m.Txs[i]
		e.Uvarint(t.TxID)
		e.Timestamp(t.CT)
		e.Timestamp(t.RST)
		e.Timestamps(t.DV)
		encodeKVs(e, t.Writes)
	}
}

func (m *Replicate) decodeFrom(d *Decoder) {
	m.SrcDC = d.Byte()
	m.Partition = uint16(d.Uvarint())
	m.Resync = d.Bool()
	m.Prev = d.Timestamp()
	n := d.Uvarint()
	if !d.checkLen(n) {
		return
	}
	if n == 0 {
		return
	}
	m.Txs = make([]ReplTx, n)
	for i := range m.Txs {
		t := &m.Txs[i]
		t.TxID = d.Uvarint()
		t.CT = d.Timestamp()
		t.RST = d.Timestamp()
		t.DV = d.Timestamps()
		t.Writes = decodeKVs(d)
	}
}

// Heartbeat advances the receiver's version-vector entry for the sender's
// DC when no transactions are committing (Alg. 4 line 20).
type Heartbeat struct {
	SrcDC     uint8
	Partition uint16
	TS        hlc.Timestamp
}

// Kind implements Message.
func (*Heartbeat) Kind() Kind { return KindHeartbeat }

// Class implements Message.
func (*Heartbeat) Class() Class { return ClassReplication }

func (m *Heartbeat) encodeTo(e *Encoder) {
	e.Byte(m.SrcDC)
	e.Uvarint(uint64(m.Partition))
	e.Timestamp(m.TS)
}

func (m *Heartbeat) decodeFrom(d *Decoder) {
	m.SrcDC = d.Byte()
	m.Partition = uint16(d.Uvarint())
	m.TS = d.Timestamp()
}

// StableBroadcast is the intra-DC stabilization exchange. In Wren (BiST) it
// carries exactly two scalars: the sender's local version clock and the
// minimum over its remote version-vector entries. In Cure it carries the
// full M-entry version vector in VV — the size difference is the paper's
// Figure 7a "Stabl." bar.
//
// With the tree topology (paper §IV-B: "partitions within a DC are
// organized as a tree to reduce communication costs"), leaf contributions
// flow to an aggregator and come back with Aggregate set: Local/RemoteMin
// then carry the DC-wide LST/RST rather than one partition's contribution.
type StableBroadcast struct {
	Partition uint16
	Aggregate bool
	Local     hlc.Timestamp
	RemoteMin hlc.Timestamp
	VV        []hlc.Timestamp // Cure only
}

// Kind implements Message.
func (*StableBroadcast) Kind() Kind { return KindStableBroadcast }

// Class implements Message.
func (*StableBroadcast) Class() Class { return ClassStabilization }

func (m *StableBroadcast) encodeTo(e *Encoder) {
	e.Uvarint(uint64(m.Partition))
	e.Bool(m.Aggregate)
	e.Timestamp(m.Local)
	e.Timestamp(m.RemoteMin)
	e.Timestamps(m.VV)
}

func (m *StableBroadcast) decodeFrom(d *Decoder) {
	m.Partition = uint16(d.Uvarint())
	m.Aggregate = d.Bool()
	m.Local = d.Timestamp()
	m.RemoteMin = d.Timestamp()
	m.VV = d.Timestamps()
}

// CommitAck confirms to the coordinator that a cohort holds a DURABLE
// commit record for the transaction (fsync-policy-bound, like every
// durability statement in the system). Once every cohort has acknowledged,
// the coordinator's logged decision is resolved and no longer needs
// re-driving after a restart. Every server runs the transaction log (the
// memory backend's has no file), so every cohort sends it.
type CommitAck struct {
	TxID      uint64
	Partition uint16 // the acknowledging cohort
}

// Kind implements Message.
func (*CommitAck) Kind() Kind { return KindCommitAck }

// Class implements Message.
func (*CommitAck) Class() Class { return ClassTransaction }

func (m *CommitAck) encodeTo(e *Encoder) {
	e.Uvarint(m.TxID)
	e.Uvarint(uint64(m.Partition))
}

func (m *CommitAck) decodeFrom(d *Decoder) {
	m.TxID = d.Uvarint()
	m.Partition = uint16(d.Uvarint())
}

// ReplicateAck confirms to the sending replica that every transaction of a
// Replicate batch up to UpTo has been applied by the receiver. The sender
// advances its persisted replication cursor for the acknowledging DC, so a
// restart re-sends only the unconfirmed tail. Resync echoes the batch's
// Resync flag: only the re-sent tail's own acknowledgement may lift the
// sender's post-restart cursor pin — an ack for newer traffic cannot vouch
// for a tail still in flight behind it. Every server runs the transaction
// log, so every receiver sends it.
type ReplicateAck struct {
	DC        uint8  // the acknowledging (receiver's) DC
	Partition uint16 // the partition the batch belonged to
	UpTo      hlc.Timestamp
	Resync    bool
}

// Kind implements Message.
func (*ReplicateAck) Kind() Kind { return KindReplicateAck }

// Class implements Message.
func (*ReplicateAck) Class() Class { return ClassReplication }

func (m *ReplicateAck) encodeTo(e *Encoder) {
	e.Byte(m.DC)
	e.Uvarint(uint64(m.Partition))
	e.Timestamp(m.UpTo)
	e.Bool(m.Resync)
}

func (m *ReplicateAck) decodeFrom(d *Decoder) {
	m.DC = d.Byte()
	m.Partition = uint16(d.Uvarint())
	m.UpTo = d.Timestamp()
	m.Resync = d.Bool()
}

// HealthReq asks a server for its durability/admission state, so operators
// (wren-cli health) can observe a degraded, read-only server without
// polling process-internal state.
type HealthReq struct {
	ReqID uint64
}

// Kind implements Message.
func (*HealthReq) Kind() Kind { return KindHealthReq }

// Class implements Message.
func (*HealthReq) Class() Class { return ClassClient }

func (m *HealthReq) encodeTo(e *Encoder)   { e.Uvarint(m.ReqID) }
func (m *HealthReq) decodeFrom(d *Decoder) { m.ReqID = d.Uvarint() }

// HealthResp reports a server's durability state: ReadOnly is set when the
// server has shed into read-only admission, and Err carries the first
// recorded write-path failure (empty while fully healthy).
type HealthResp struct {
	ReqID    uint64
	ReadOnly bool
	Err      string
}

// Kind implements Message.
func (*HealthResp) Kind() Kind { return KindHealthResp }

// Class implements Message.
func (*HealthResp) Class() Class { return ClassClient }

func (m *HealthResp) encodeTo(e *Encoder) {
	e.Uvarint(m.ReqID)
	e.Bool(m.ReadOnly)
	e.String(m.Err)
}

func (m *HealthResp) decodeFrom(d *Decoder) {
	m.ReqID = d.Uvarint()
	m.ReadOnly = d.Bool()
	m.Err = d.String()
}

// TxStatusReq is the cooperative termination probe of the 2PC: a cohort
// holding a prepare recovered from its transaction log — whose outcome
// never arrived — asks the transaction's coordinator (derived from the
// transaction id) whether a commit decision exists. Decisions are only
// ever made in the life that ran the 2PC, so the coordinator's answer is
// final: a recovered prepare may only be aborted on an explicit
// "not committed" answer, never on a timeout alone.
//
// Clients reuse the same probe after a commit times out: ReqID is zero
// for cohort probes and non-zero for client probes (routing the reply
// through the client's pending-call table). A "not committed" answer to a
// client probe additionally fences the transaction id at the coordinator,
// so the client may safely re-drive the write set elsewhere.
type TxStatusReq struct {
	ReqID uint64
	TxID  uint64
}

// Kind implements Message.
func (*TxStatusReq) Kind() Kind { return KindTxStatusReq }

// Class implements Message.
func (*TxStatusReq) Class() Class { return ClassTransaction }

func (m *TxStatusReq) encodeTo(e *Encoder) {
	e.Uvarint(m.ReqID)
	e.Uvarint(m.TxID)
}

func (m *TxStatusReq) decodeFrom(d *Decoder) {
	m.ReqID = d.Uvarint()
	m.TxID = d.Uvarint()
}

// TxStatusResp answers a TxStatusReq: Committed with the decision's CT
// when the coordinator's log retains an unresolved commit decision for
// the transaction, otherwise not committed (the transaction never was, or
// no longer needs to be, committed at the asking cohort).
type TxStatusResp struct {
	ReqID     uint64 // echoed from the probe; zero for cohort probes
	TxID      uint64
	CT        hlc.Timestamp
	Committed bool
}

// Kind implements Message.
func (*TxStatusResp) Kind() Kind { return KindTxStatusResp }

// Class implements Message.
func (*TxStatusResp) Class() Class { return ClassTransaction }

func (m *TxStatusResp) encodeTo(e *Encoder) {
	e.Uvarint(m.ReqID)
	e.Uvarint(m.TxID)
	e.Timestamp(m.CT)
	e.Bool(m.Committed)
}

func (m *TxStatusResp) decodeFrom(d *Decoder) {
	m.ReqID = d.Uvarint()
	m.TxID = d.Uvarint()
	m.CT = d.Timestamp()
	m.Committed = d.Bool()
}

// GCBroadcast exchanges the oldest snapshot visible to any running
// transaction so partitions can prune version chains (paper §IV-B).
type GCBroadcast struct {
	Partition uint16
	Oldest    hlc.Timestamp
}

// Kind implements Message.
func (*GCBroadcast) Kind() Kind { return KindGCBroadcast }

// Class implements Message.
func (*GCBroadcast) Class() Class { return ClassControl }

func (m *GCBroadcast) encodeTo(e *Encoder) {
	e.Uvarint(uint64(m.Partition))
	e.Timestamp(m.Oldest)
}

func (m *GCBroadcast) decodeFrom(d *Decoder) {
	m.Partition = uint16(d.Uvarint())
	m.Oldest = d.Timestamp()
}

// ScanReq asks one partition for its keys in [Start, End), read at the
// transaction's nonblocking snapshot (lt, rt) — the same visibility cut
// slice reads use, so a scan never blocks behind replication either.
// An empty End means "to the end of the keyspace". Limit bounds the
// number of items returned per partition (0 = unlimited); the client
// merges partitions and re-applies the limit globally.
type ScanReq struct {
	ReqID uint64
	Start string
	End   string
	Limit uint64
	LT    hlc.Timestamp
	RT    hlc.Timestamp
}

// Kind implements Message.
func (*ScanReq) Kind() Kind { return KindScanReq }

// Class implements Message.
func (*ScanReq) Class() Class { return ClassTransaction }

func (m *ScanReq) encodeTo(e *Encoder) {
	e.Uvarint(m.ReqID)
	e.String(m.Start)
	e.String(m.End)
	e.Uvarint(m.Limit)
	e.Timestamp(m.LT)
	e.Timestamp(m.RT)
}

func (m *ScanReq) decodeFrom(d *Decoder) {
	m.ReqID = d.Uvarint()
	m.Start = d.String()
	m.End = d.String()
	m.Limit = d.Uvarint()
	m.LT = d.Timestamp()
	m.RT = d.Timestamp()
}

// ScanResp returns one partition's visible versions for a range scan, in
// ascending key order. More reports whether the partition had further
// keys beyond the per-partition limit.
type ScanResp struct {
	ReqID uint64
	Items []Item
	More  bool
}

// Kind implements Message.
func (*ScanResp) Kind() Kind { return KindScanResp }

// Class implements Message.
func (*ScanResp) Class() Class { return ClassTransaction }

func (m *ScanResp) encodeTo(e *Encoder) {
	e.Uvarint(m.ReqID)
	encodeItems(e, m.Items)
	e.Bool(m.More)
}

func (m *ScanResp) decodeFrom(d *Decoder) {
	m.ReqID = d.Uvarint()
	m.Items = decodeItems(d)
	m.More = d.Bool()
}

// BusyResp is the server's admission pushback: the request identified by
// ReqID was shed before ANY processing because its connection exceeded the
// per-connection in-flight cap. Unlike a timeout, a BusyResp proves the
// request did not execute, so resending it after a backoff is safe even
// for a CommitReq. Clients surface it as transport.ErrOverloaded and let
// their RetryPolicy delay and retry.
type BusyResp struct {
	ReqID uint64
}

// Kind implements Message.
func (*BusyResp) Kind() Kind { return KindBusyResp }

// Class implements Message.
func (*BusyResp) Class() Class { return ClassClient }

func (m *BusyResp) encodeTo(e *Encoder) {
	e.Uvarint(m.ReqID)
}

func (m *BusyResp) decodeFrom(d *Decoder) {
	m.ReqID = d.Uvarint()
}

// newMessage allocates an empty message of the given kind.
func newMessage(kind Kind) (Message, error) {
	switch kind {
	case KindStartTxReq:
		return &StartTxReq{}, nil
	case KindStartTxResp:
		return &StartTxResp{}, nil
	case KindTxReadReq:
		return &TxReadReq{}, nil
	case KindTxReadResp:
		return &TxReadResp{}, nil
	case KindCommitReq:
		return &CommitReq{}, nil
	case KindCommitResp:
		return &CommitResp{}, nil
	case KindSliceReq:
		return &SliceReq{}, nil
	case KindSliceResp:
		return &SliceResp{}, nil
	case KindPrepareReq:
		return &PrepareReq{}, nil
	case KindPrepareResp:
		return &PrepareResp{}, nil
	case KindCommitTx:
		return &CommitTx{}, nil
	case KindReplicate:
		return &Replicate{}, nil
	case KindHeartbeat:
		return &Heartbeat{}, nil
	case KindStableBroadcast:
		return &StableBroadcast{}, nil
	case KindGCBroadcast:
		return &GCBroadcast{}, nil
	case KindCommitAck:
		return &CommitAck{}, nil
	case KindReplicateAck:
		return &ReplicateAck{}, nil
	case KindHealthReq:
		return &HealthReq{}, nil
	case KindHealthResp:
		return &HealthResp{}, nil
	case KindTxStatusReq:
		return &TxStatusReq{}, nil
	case KindTxStatusResp:
		return &TxStatusResp{}, nil
	case KindScanReq:
		return &ScanReq{}, nil
	case KindScanResp:
		return &ScanResp{}, nil
	case KindBusyResp:
		return &BusyResp{}, nil
	default:
		return nil, fmt.Errorf("wire: unknown message kind %d", kind)
	}
}
