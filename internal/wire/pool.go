package wire

import "sync"

// Read-path message pools. A slice read allocates three messages per hop
// (SliceReq out, SliceResp back, TxReadResp to the client); pooling them —
// together with the caller-buffer store reads and the pooled frame encoder
// — makes the slice-read hot path allocation-free end to end on
// replicatest.SyncNet, the synchronous test fabric that hands the receiver
// the sender's pointer and that every allocation pin runs on. Both
// transports decode every received message into a fresh one (the
// in-memory network decodes the message's encoding, TCP the frame): a
// read result (TxReadResp, SliceResp, ScanResp) costs 4 allocations
// whatever its item count — the message, its items, one key string and
// one value arena — a key list (TxReadReq, SliceReq) 3, and a write set 2
// per write plus 2 (TestDecodeReadResultAllocs and its neighbours,
// TestReadFrameAllocs in transport/tcp).
//
// Ownership rule: the RECEIVER releases a pooled message. A transport
// delivers a decoded copy, so the receiver releases that one and the
// sender's copy is simply dropped to the GC (a pool miss, not a leak).
// On SyncNet the handler gets the sender's pointer, so there the sender
// must never touch a message after Send; the handler calls the matching
// Put once it has copied what it needs. Releasing is always optional — a
// dropped message is reclaimed by the GC like any other.

var (
	sliceReqPool   = sync.Pool{New: func() any { return new(SliceReq) }}
	sliceRespPool  = sync.Pool{New: func() any { return new(SliceResp) }}
	txReadRespPool = sync.Pool{New: func() any { return new(TxReadResp) }}
)

// GetSliceReq returns an empty SliceReq. Keys keeps the capacity of its
// previous use; append into Keys[:0].
func GetSliceReq() *SliceReq { return sliceReqPool.Get().(*SliceReq) }

// PutSliceReq releases m for reuse. The Keys backing array is retained
// (its strings are cleared so it pins nothing); SV is NOT retained — on
// the coordinator it aliases the transaction's snapshot vector, which must
// never be scribbled on by a later user of the pooled message.
func PutSliceReq(m *SliceReq) {
	clearStrings(m.Keys)
	m.Keys = m.Keys[:0]
	*m = SliceReq{Keys: m.Keys}
	sliceReqPool.Put(m)
}

// GetSliceResp returns an empty SliceResp. Items keeps the capacity of its
// previous use; append into Items[:0].
func GetSliceResp() *SliceResp { return sliceRespPool.Get().(*SliceResp) }

// PutSliceResp releases m for reuse, clearing Items so the pooled slot
// does not pin keys and values of a finished read.
func PutSliceResp(m *SliceResp) {
	clearItems(m.Items)
	m.Items = m.Items[:0]
	*m = SliceResp{Items: m.Items}
	sliceRespPool.Put(m)
}

// GetTxReadResp returns an empty TxReadResp. Items keeps the capacity of
// its previous use; append into Items[:0].
func GetTxReadResp() *TxReadResp { return txReadRespPool.Get().(*TxReadResp) }

// PutTxReadResp releases m for reuse. Chunks are dropped to the GC, not
// retained: their backing arrays were detached from SliceResp messages by
// the fan-in's large-read fast path and belong to no pool anymore.
func PutTxReadResp(m *TxReadResp) {
	clearItems(m.Items)
	m.Items = m.Items[:0]
	*m = TxReadResp{Items: m.Items}
	txReadRespPool.Put(m)
}

func clearItems(items []Item) {
	for i := range items {
		items[i] = Item{}
	}
}

func clearStrings(ss []string) {
	for i := range ss {
		ss[i] = ""
	}
}
