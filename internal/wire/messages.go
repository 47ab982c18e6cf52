package wire

import "wren/internal/hlc"

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

// codec codes an item's fields after its key and value, which coder.Items
// codes first (decoding, into the message's key string and value arena).
func (it *Item) codec(c *coder) {
	c.Timestamp(&it.UT)
	c.Timestamp(&it.RDT)
	c.Uvarint(&it.TxID)
	c.Byte(&it.SrcDC)
	c.Timestamps(&it.DV)
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

// codec codes a presence byte, then the three scalars if the stamp is set.
func (s *Stab) codec(c *coder) {
	stamped := *s != Stab{}
	if c.Bool(&stamped); stamped {
		c.Timestamp(&s.Local)
		c.Timestamp(&s.RemoteMin)
		c.Timestamp(&s.Seen)
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

func (m *StartTxReq) codec(c *coder) {
	c.Uvarint(&m.ReqID)
	c.Timestamp(&m.LST)
	c.Timestamp(&m.RST)
	c.Timestamps(&m.DV)
	c.Uvarint(&m.Done)
}

// StartTxResp carries the transaction id and snapshot (Alg. 2 line 6).
type StartTxResp struct {
	ReqID uint64
	TxID  uint64
	LST   hlc.Timestamp   // Wren: local snapshot time
	RST   hlc.Timestamp   // Wren: remote snapshot time
	SV    []hlc.Timestamp // Cure: snapshot vector, one entry per DC
}

func (m *StartTxResp) codec(c *coder) {
	c.Uvarint(&m.ReqID)
	c.Uvarint(&m.TxID)
	c.Timestamp(&m.LST)
	c.Timestamp(&m.RST)
	c.Timestamps(&m.SV)
}

// TxReadReq asks the coordinator to read a set of keys within a transaction.
type TxReadReq struct {
	ReqID uint64
	TxID  uint64
	Keys  []string
}

func (m *TxReadReq) codec(c *coder) {
	c.Uvarint(&m.ReqID)
	c.Uvarint(&m.TxID)
	c.Strings(&m.Keys)
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
	// a flat Items — so a receiver never sees chunks: both transports
	// deliver decoded messages. Only a pointer-passing test fabric
	// (replicatest.SyncNet) hands them over, and its reader iterates Items
	// AND every chunk.
	Chunks [][]Item
	// BlockedMicros is the maximum time any constituent slice read spent
	// blocked waiting for a snapshot to be installed (Cure/H-Cure only;
	// always 0 in Wren). Feeds the paper's Figure 3b.
	BlockedMicros int64
}

func (m *TxReadResp) codec(c *coder) {
	c.Uvarint(&m.ReqID)
	c.Items(&m.Items, m.Chunks)
	c.Int64(&m.BlockedMicros)
	c.Bool(&m.Expired)
}

// CommitReq ships the write set to the coordinator (Alg. 1 line 27).
type CommitReq struct {
	ReqID  uint64
	TxID   uint64
	HWT    hlc.Timestamp // client's highest write (last commit) time
	Writes []KV
}

func (m *CommitReq) codec(c *coder) {
	c.Uvarint(&m.ReqID)
	c.Uvarint(&m.TxID)
	c.Timestamp(&m.HWT)
	c.KVs(&m.Writes)
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

func (m *CommitResp) codec(c *coder) {
	c.Uvarint(&m.ReqID)
	c.Timestamp(&m.CT)
	c.Byte(&m.Code)
	c.String(&m.Err)
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

func (m *SliceReq) codec(c *coder) {
	c.Uvarint(&m.ReqID)
	c.Strings(&m.Keys)
	c.Timestamp(&m.LT)
	c.Timestamp(&m.RT)
	c.Timestamps(&m.SV)
	m.Stab.codec(c)
}

// SliceResp returns the freshest visible versions for a slice read.
type SliceResp struct {
	ReqID         uint64
	Items         []Item
	BlockedMicros int64 // time the read spent blocked (Cure/H-Cure)
	Stab          Stab
}

func (m *SliceResp) codec(c *coder) {
	c.Uvarint(&m.ReqID)
	c.Items(&m.Items, nil)
	c.Int64(&m.BlockedMicros)
	m.Stab.codec(c)
}

// PrepareReq is the first phase of the 2PC commit (Alg. 2 line 22). With
// Decide set the write set is the whole transaction's, on one partition:
// the cohort commits it alone at its proposal, and its PrepareResp is the
// outcome (a one-phase commit; see package replica).
type PrepareReq struct {
	ReqID  uint64
	TxID   uint64
	LT     hlc.Timestamp // transaction's local snapshot time
	RT     hlc.Timestamp // transaction's remote snapshot time
	HT     hlc.Timestamp // max timestamp seen by the client
	SV     []hlc.Timestamp
	Writes []KV
	Stab   Stab
	Decide bool
}

func (m *PrepareReq) codec(c *coder) {
	c.Uvarint(&m.ReqID)
	c.Uvarint(&m.TxID)
	c.Timestamp(&m.LT)
	c.Timestamp(&m.RT)
	c.Timestamp(&m.HT)
	c.Timestamps(&m.SV)
	c.KVs(&m.Writes)
	m.Stab.codec(c)
	c.Bool(&m.Decide)
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

func (m *PrepareResp) codec(c *coder) {
	c.Uvarint(&m.ReqID)
	c.Uvarint(&m.TxID)
	c.Timestamp(&m.PT)
	c.String(&m.Err)
	m.Stab.codec(c)
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

func (m *CommitTx) codec(c *coder) {
	c.Uvarint(&m.TxID)
	c.Timestamp(&m.CT)
	m.Stab.codec(c)
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
// Resync marks a batch of a rewind: the sender re-sends the committed
// transactions above the receiver's replication cursor, and the receiver
// deduplicates each transaction against its storage engine before
// applying — ordinary batches skip that check, keeping the steady-state
// apply path untouched.
type Replicate struct {
	SrcDC     uint8
	Partition uint16
	Resync    bool
	// Prev chains every batch of the sender's stream to this DC: the
	// commit timestamp of the last transaction it shipped there before
	// this batch. A rewind's first batch carries zero: it starts at the
	// sender's replication cursor, a prefix the receiver acknowledged. A
	// receiver whose watermark is below Prev is missing an earlier batch
	// and must refuse this one unacknowledged, so the sender's cursor
	// stalls and its stream rewinds instead of silently applying past a
	// gap.
	Prev hlc.Timestamp
	Txs  []ReplTx
}

func (m *Replicate) codec(c *coder) {
	c.Byte(&m.SrcDC)
	c.Uint16(&m.Partition)
	c.Bool(&m.Resync)
	c.Timestamp(&m.Prev)
	sized(c, &m.Txs)
	for i := range m.Txs {
		t := &m.Txs[i]
		c.Uvarint(&t.TxID)
		c.Timestamp(&t.CT)
		c.Timestamp(&t.RST)
		c.Timestamps(&t.DV)
		c.KVs(&t.Writes)
	}
}

// Heartbeat advances the receiver's version-vector entry for the sender's
// DC when no transactions are committing (Alg. 4 line 20).
type Heartbeat struct {
	SrcDC     uint8
	Partition uint16
	TS        hlc.Timestamp
}

func (m *Heartbeat) codec(c *coder) {
	c.Byte(&m.SrcDC)
	c.Uint16(&m.Partition)
	c.Timestamp(&m.TS)
}

// StableBroadcast is the intra-DC stabilization exchange, broadcast by
// every partition to every other one of its DC. In Wren (BiST) it carries
// exactly two scalars: the sender's local version clock and the minimum
// over its remote version-vector entries, whatever the number of DCs. In
// Cure it carries the full M-entry version vector in VV — the size
// difference is the paper's Figure 7a "Stabl." bar.
type StableBroadcast struct {
	Partition uint16
	Local     hlc.Timestamp
	RemoteMin hlc.Timestamp
	VV        []hlc.Timestamp // Cure only
}

func (m *StableBroadcast) codec(c *coder) {
	c.Uint16(&m.Partition)
	c.Timestamp(&m.Local)
	c.Timestamp(&m.RemoteMin)
	c.Timestamps(&m.VV)
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

func (m *CommitAck) codec(c *coder) {
	c.Uvarint(&m.TxID)
	c.Uint16(&m.Partition)
}

// ReplicateAck confirms to the sending replica that every transaction of a
// Replicate batch up to UpTo has been applied by the receiver. The sender
// advances its persisted replication cursor for the acknowledging DC, so a
// rewind re-sends only the unconfirmed tail. The receiver applies the
// stream in order, so the ack vouches for every transaction up to UpTo.
// Every server runs the transaction log, so every receiver sends it.
type ReplicateAck struct {
	DC        uint8  // the acknowledging (receiver's) DC
	Partition uint16 // the partition the batch belonged to
	UpTo      hlc.Timestamp
}

func (m *ReplicateAck) codec(c *coder) {
	c.Byte(&m.DC)
	c.Uint16(&m.Partition)
	c.Timestamp(&m.UpTo)
}

// HealthReq asks a server for its durability/admission state, so operators
// (wren-cli health) can observe a degraded, read-only server without
// polling process-internal state.
type HealthReq struct {
	ReqID uint64
}

func (m *HealthReq) codec(c *coder) {
	c.Uvarint(&m.ReqID)
}

// HealthResp reports a server's durability state: ReadOnly is set when the
// server has shed into read-only admission, and Err carries the first
// recorded write-path failure (empty while fully healthy).
type HealthResp struct {
	ReqID    uint64
	ReadOnly bool
	Err      string
}

func (m *HealthResp) codec(c *coder) {
	c.Uvarint(&m.ReqID)
	c.Bool(&m.ReadOnly)
	c.String(&m.Err)
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

func (m *TxStatusReq) codec(c *coder) {
	c.Uvarint(&m.ReqID)
	c.Uvarint(&m.TxID)
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

func (m *TxStatusResp) codec(c *coder) {
	c.Uvarint(&m.ReqID)
	c.Uvarint(&m.TxID)
	c.Timestamp(&m.CT)
	c.Bool(&m.Committed)
}

// GCBroadcast exchanges the oldest snapshot visible to any running
// transaction so partitions can prune version chains (paper §IV-B).
type GCBroadcast struct {
	Partition uint16
	Oldest    hlc.Timestamp
}

func (m *GCBroadcast) codec(c *coder) {
	c.Uint16(&m.Partition)
	c.Timestamp(&m.Oldest)
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

func (m *ScanReq) codec(c *coder) {
	c.Uvarint(&m.ReqID)
	c.String(&m.Start)
	c.String(&m.End)
	c.Uvarint(&m.Limit)
	c.Timestamp(&m.LT)
	c.Timestamp(&m.RT)
}

// ScanResp returns one partition's visible versions for a range scan, in
// ascending key order. More reports whether the partition had further
// keys beyond the per-partition limit.
type ScanResp struct {
	ReqID uint64
	Items []Item
	More  bool
}

func (m *ScanResp) codec(c *coder) {
	c.Uvarint(&m.ReqID)
	c.Items(&m.Items, nil)
	c.Bool(&m.More)
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

func (m *BusyResp) codec(c *coder) {
	c.Uvarint(&m.ReqID)
}
