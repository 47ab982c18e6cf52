package wire

import "fmt"

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

// kinds is the one list of message kinds, indexed by wire value: each
// kind's name, its accounting class, and the constructor Decode fills.
var kinds = [...]struct {
	name  string
	class Class
	new   func() Message
}{
	KindStartTxReq:      {"StartTxReq", ClassClient, func() Message { return new(StartTxReq) }},
	KindStartTxResp:     {"StartTxResp", ClassClient, func() Message { return new(StartTxResp) }},
	KindTxReadReq:       {"TxReadReq", ClassClient, func() Message { return new(TxReadReq) }},
	KindTxReadResp:      {"TxReadResp", ClassClient, func() Message { return new(TxReadResp) }},
	KindCommitReq:       {"CommitReq", ClassClient, func() Message { return new(CommitReq) }},
	KindCommitResp:      {"CommitResp", ClassClient, func() Message { return new(CommitResp) }},
	KindSliceReq:        {"SliceReq", ClassTransaction, func() Message { return new(SliceReq) }},
	KindSliceResp:       {"SliceResp", ClassTransaction, func() Message { return new(SliceResp) }},
	KindPrepareReq:      {"PrepareReq", ClassTransaction, func() Message { return new(PrepareReq) }},
	KindPrepareResp:     {"PrepareResp", ClassTransaction, func() Message { return new(PrepareResp) }},
	KindCommitTx:        {"CommitTx", ClassTransaction, func() Message { return new(CommitTx) }},
	KindReplicate:       {"Replicate", ClassReplication, func() Message { return new(Replicate) }},
	KindHeartbeat:       {"Heartbeat", ClassReplication, func() Message { return new(Heartbeat) }},
	KindStableBroadcast: {"StableBroadcast", ClassStabilization, func() Message { return new(StableBroadcast) }},
	KindGCBroadcast:     {"GCBroadcast", ClassControl, func() Message { return new(GCBroadcast) }},
	KindCommitAck:       {"CommitAck", ClassTransaction, func() Message { return new(CommitAck) }},
	KindReplicateAck:    {"ReplicateAck", ClassReplication, func() Message { return new(ReplicateAck) }},
	KindHealthReq:       {"HealthReq", ClassClient, func() Message { return new(HealthReq) }},
	KindHealthResp:      {"HealthResp", ClassClient, func() Message { return new(HealthResp) }},
	KindTxStatusReq:     {"TxStatusReq", ClassTransaction, func() Message { return new(TxStatusReq) }},
	KindTxStatusResp:    {"TxStatusResp", ClassTransaction, func() Message { return new(TxStatusResp) }},
	KindScanReq:         {"ScanReq", ClassTransaction, func() Message { return new(ScanReq) }},
	KindScanResp:        {"ScanResp", ClassTransaction, func() Message { return new(ScanResp) }},
	KindBusyResp:        {"BusyResp", ClassClient, func() Message { return new(BusyResp) }},
}

// String implements fmt.Stringer for diagnostics.
func (k Kind) String() string {
	if int(k) < len(kinds) && kinds[k].new != nil {
		return kinds[k].name
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
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

// Message is implemented by every wire message. Kind binds the type to
// its row of kinds, Class reads the row, and codec codes the fields.
type Message interface {
	Kind() Kind
	Class() Class
	codec(c *coder)
}

func (*StartTxReq) Kind() Kind      { return KindStartTxReq }
func (*StartTxResp) Kind() Kind     { return KindStartTxResp }
func (*TxReadReq) Kind() Kind       { return KindTxReadReq }
func (*TxReadResp) Kind() Kind      { return KindTxReadResp }
func (*CommitReq) Kind() Kind       { return KindCommitReq }
func (*CommitResp) Kind() Kind      { return KindCommitResp }
func (*SliceReq) Kind() Kind        { return KindSliceReq }
func (*SliceResp) Kind() Kind       { return KindSliceResp }
func (*PrepareReq) Kind() Kind      { return KindPrepareReq }
func (*PrepareResp) Kind() Kind     { return KindPrepareResp }
func (*CommitTx) Kind() Kind        { return KindCommitTx }
func (*Replicate) Kind() Kind       { return KindReplicate }
func (*Heartbeat) Kind() Kind       { return KindHeartbeat }
func (*StableBroadcast) Kind() Kind { return KindStableBroadcast }
func (*GCBroadcast) Kind() Kind     { return KindGCBroadcast }
func (*CommitAck) Kind() Kind       { return KindCommitAck }
func (*ReplicateAck) Kind() Kind    { return KindReplicateAck }
func (*HealthReq) Kind() Kind       { return KindHealthReq }
func (*HealthResp) Kind() Kind      { return KindHealthResp }
func (*TxStatusReq) Kind() Kind     { return KindTxStatusReq }
func (*TxStatusResp) Kind() Kind    { return KindTxStatusResp }
func (*ScanReq) Kind() Kind         { return KindScanReq }
func (*ScanResp) Kind() Kind        { return KindScanResp }
func (*BusyResp) Kind() Kind        { return KindBusyResp }

func (m *StartTxReq) Class() Class      { return kinds[m.Kind()].class }
func (m *StartTxResp) Class() Class     { return kinds[m.Kind()].class }
func (m *TxReadReq) Class() Class       { return kinds[m.Kind()].class }
func (m *TxReadResp) Class() Class      { return kinds[m.Kind()].class }
func (m *CommitReq) Class() Class       { return kinds[m.Kind()].class }
func (m *CommitResp) Class() Class      { return kinds[m.Kind()].class }
func (m *SliceReq) Class() Class        { return kinds[m.Kind()].class }
func (m *SliceResp) Class() Class       { return kinds[m.Kind()].class }
func (m *PrepareReq) Class() Class      { return kinds[m.Kind()].class }
func (m *PrepareResp) Class() Class     { return kinds[m.Kind()].class }
func (m *CommitTx) Class() Class        { return kinds[m.Kind()].class }
func (m *Replicate) Class() Class       { return kinds[m.Kind()].class }
func (m *Heartbeat) Class() Class       { return kinds[m.Kind()].class }
func (m *StableBroadcast) Class() Class { return kinds[m.Kind()].class }
func (m *GCBroadcast) Class() Class     { return kinds[m.Kind()].class }
func (m *CommitAck) Class() Class       { return kinds[m.Kind()].class }
func (m *ReplicateAck) Class() Class    { return kinds[m.Kind()].class }
func (m *HealthReq) Class() Class       { return kinds[m.Kind()].class }
func (m *HealthResp) Class() Class      { return kinds[m.Kind()].class }
func (m *TxStatusReq) Class() Class     { return kinds[m.Kind()].class }
func (m *TxStatusResp) Class() Class    { return kinds[m.Kind()].class }
func (m *ScanReq) Class() Class         { return kinds[m.Kind()].class }
func (m *ScanResp) Class() Class        { return kinds[m.Kind()].class }
func (m *BusyResp) Class() Class        { return kinds[m.Kind()].class }
