// Package wire defines the messages exchanged by Wren, Cure and H-Cure
// servers and clients, together with a compact binary codec.
//
// The codec matters beyond serialization: the paper's Figure 7a compares the
// bytes exchanged by the replication and stabilization protocols of Wren
// (two scalar timestamps per update/snapshot — BDT/BiST) against Cure (a
// vector with one entry per DC). All byte accounting in the transport layer
// is computed from these encodings, so the measured ratios come from the
// real metadata layout, not from an analytic model.
//
// # One codec per message
//
// Each message states its layout once, in a codec(c *coder) method that
// names every field in wire order. A coder carries its direction —
// encoding, sizing or decoding — and each primitive (Uvarint, Uint16,
// Int64, Byte, Bool, Timestamp, Timestamps, String, Strings, Len, KVs,
// Items) takes a pointer to the field: it appends the field's bytes,
// counts them, or reads them into it. Encode, EncodeInto, Size and Decode
// all run that one method, so a field cannot be added to one side only.
// A read result's items are walked once before they are decoded, to size
// their shared key string and value arena; that walk runs Item's codec
// too, in a fourth direction (skipping) that reads without keeping.
// Every kind is listed once, in the kinds table (name, accounting class,
// constructor); Kind.String, Decode and each message's Class read it.
//
// Adding a field to a message is one line in its codec plus an update of
// its golden frame in TestFrameFormatPinned, which pins every kind's
// bytes. Adding a kind is its constant, its table row, its Kind and Class
// one-liners, its codec and its golden frame.
//
// Encoder and Decoder are the same primitives by value, for the framed
// on-disk records (internal/store/logrec, internal/txlog) that are not
// messages; a txlog prepare record's write set is coded by the same KVs.
//
// # Who owns decoded bytes
//
// Decode never aliases its payload, so a reader may reuse one buffer for
// every frame (the TCP transport does), and it pays per message, not per
// field:
//
//   - A stored write owns its bytes. Each value of a write set (the KVs of
//     CommitReq, PrepareReq and ReplTx) is copied once into its own
//     allocation: the memory engine keeps it as the version's value, and a
//     shared allocation would let one surviving version pin a whole
//     replication batch. Each write's key is its own string.
//   - A read result shares one allocation per message. The Items of
//     TxReadResp, SliceResp and ScanResp take one value arena and one key
//     string per message, and a key list (TxReadReq, SliceReq) one string.
//     Every value is cap-limited to its own bytes, so appending to one
//     reallocates instead of overwriting its neighbour; a retained item
//     keeps its whole message's arena alive.
//
// A zero-length value decodes as nil: the encoding does not tell an empty
// value from an absent one (KV carries an explicit Tombstone flag).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync"

	"wren/internal/hlc"
)

// ErrTruncated is returned when a decode runs out of bytes.
var ErrTruncated = errors.New("wire: truncated message")

// ErrTooLarge is returned when a length prefix exceeds sane limits.
var ErrTooLarge = errors.New("wire: length prefix too large")

// ErrNonCanonical is returned for a field no encoder writes: a varint in
// more bytes than its value needs, or a boolean byte other than 0 or 1. A
// decoder takes only what the encoder writes, so what decodes re-encodes
// to the same bytes.
var ErrNonCanonical = errors.New("wire: non-canonical encoding")

// ErrFrameTooLarge is a transport's refusal of a message over MaxFrameLen.
var ErrFrameTooLarge = errors.New("wire: message over the frame bound")

// MaxFieldLen is the longest key or value a message can carry: Decode
// refuses a longer byte field, so a sender must refuse it first.
const MaxFieldLen = maxSliceLen

// MaxFrameLen is the longest message any transport carries, counted as
// Size counts it: a receiver drops a connection that sends a longer frame,
// so a sender refuses the message instead of sending it.
const MaxFrameLen = 64 << 20

// MaxDCs is the most data centres a message can name: a DC travels as one
// byte (Replicate.SrcDC), and a vector has one entry per DC.
const MaxDCs = 1 << 8

// MaxWrites is the most writes a write set can hold: Decode refuses a
// longer one.
const MaxWrites = maxSliceLen

// MaxWriteSetLen is the most bytes a write set may take, counted as
// WriteLen counts them, so that every message that carries it — the
// CommitReq, a cohort's PrepareReq and a Replicate of the transaction
// alone — is within MaxFrameLen, whatever its other fields hold.
var MaxWriteSetLen = MaxFrameLen - writeSetCarrierLen()

// WriteLen returns the bytes kv takes in a write set.
func WriteLen(kv *KV) int {
	c := coder{mode: sizing}
	c.kv(kv)
	return c.n
}

// writeSetCarrierLen is the most bytes a message adds to the write set it
// carries: the largest Size of a carrier whose write set is empty, with
// every varint at its widest and every vector at MaxDCs entries, plus the
// widest write count in place of the empty one's single byte.
func writeSetCarrierLen() int {
	vec := make([]hlc.Timestamp, MaxDCs)
	stab := Stab{Local: 1}
	carriers := []Message{
		&CommitReq{ReqID: math.MaxUint64, TxID: math.MaxUint64},
		&PrepareReq{ReqID: math.MaxUint64, TxID: math.MaxUint64, SV: vec, Stab: stab},
		&Replicate{Partition: math.MaxUint16, Txs: []ReplTx{{TxID: math.MaxUint64, DV: vec}}},
	}
	most := 0
	for _, m := range carriers {
		most = max(most, Size(m))
	}
	return most - 1 + uvarintLen(MaxWrites)
}

const (
	// maxSliceLen bounds decoded collection and byte-field lengths to
	// protect against corrupted or adversarial frames.
	maxSliceLen = 1 << 22
	// headerSize is the per-message framing overhead accounted by Size:
	// a 4-byte length prefix plus a 1-byte kind tag, mirroring the TCP
	// transport's framing.
	headerSize = 5
)

// FrameLen returns the Size of a message whose encoded payload is
// payloadLen bytes long, for a transport to hold against MaxFrameLen.
func FrameLen(payloadLen int) int { return payloadLen + headerSize }

// codecMode is the direction a coder codes in.
type codecMode uint8

const (
	encoding codecMode = iota // append each field to buf
	sizing                    // count each field's bytes in n
	decoding                  // read each field from buf at off
	skipping                  // decoding, keeping nothing a field owns
)

// coder codes a message's fields in one direction (see the package
// comment). Each primitive takes a pointer to the field; only decoding and
// skipping write through it, so concurrent encodes of one message are
// safe.
type coder struct {
	buf  []byte    // encoding: the output; decoding: the input
	off  int       // decoding: the read offset
	n    int       // sizing: the bytes counted
	err  error     // decoding: the first failure, after which reads return zero
	mode codecMode // the zero coder encodes
}

// Uvarint codes an unsigned varint.
func (c *coder) Uvarint(v *uint64) {
	switch c.mode {
	case encoding:
		c.buf = binary.AppendUvarint(c.buf, *v)
	case sizing:
		c.n += uvarintLen(*v)
	default:
		*v = c.uvarint()
	}
}

// Uint16 codes a uint16 as a varint.
func (c *coder) Uint16(v *uint16) {
	x := uint64(*v)
	c.Uvarint(&x)
	if c.reading() {
		*v = uint16(x)
	}
}

// Int64 codes an int64 as the varint of its two's-complement bits.
func (c *coder) Int64(v *int64) {
	x := uint64(*v)
	c.Uvarint(&x)
	if c.reading() {
		*v = int64(x)
	}
}

// Byte codes one raw byte.
func (c *coder) Byte(v *byte) {
	switch c.mode {
	case encoding:
		c.buf = append(c.buf, *v)
	case sizing:
		c.n++
	default:
		*v = c.byte()
	}
}

// Bool codes a boolean as one byte, 0 or 1.
func (c *coder) Bool(v *bool) {
	switch c.mode {
	case encoding:
		var b byte
		if *v {
			b = 1
		}
		c.buf = append(c.buf, b)
	case sizing:
		c.n++
	default:
		b := c.byte()
		if b > 1 {
			c.fail(ErrNonCanonical)
		}
		*v = b == 1
	}
}

// Timestamp codes an hlc.Timestamp as a little-endian 8-byte integer.
// Timestamps use fixed width so that message sizes are stable and
// comparable across protocols.
func (c *coder) Timestamp(t *hlc.Timestamp) {
	switch c.mode {
	case encoding:
		c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(*t))
	case sizing:
		c.n += 8
	default:
		*t = hlc.Timestamp(c.fixed64())
	}
}

// Timestamps codes a length-prefixed timestamp vector. An empty vector
// decodes as nil.
func (c *coder) Timestamps(ts *[]hlc.Timestamp) {
	if n := sized(c, ts); c.mode == skipping {
		c.skip(8 * uint64(n))
		return
	}
	for i := range *ts {
		c.Timestamp(&(*ts)[i])
	}
}

// String codes a length-prefixed string.
func (c *coder) String(s *string) {
	switch c.mode {
	case encoding:
		c.buf = binary.AppendUvarint(c.buf, uint64(len(*s)))
		c.buf = append(c.buf, *s...)
	case sizing:
		c.n += uvarintLen(uint64(len(*s))) + len(*s)
	default:
		*s = string(c.bytesField())
	}
}

// Strings codes a length-prefixed string slice. Decoded, its strings
// share one allocation.
func (c *coder) Strings(ss *[]string) {
	if c.mode == decoding {
		*ss = c.strings()
		return
	}
	c.Len(len(*ss))
	for i := range *ss {
		c.String(&(*ss)[i])
	}
}

// Len codes a collection's length n and returns it. Reading, it returns
// the length read, refused (0, with the error set) beyond the bytes left:
// every element takes at least one byte.
func (c *coder) Len(n int) int {
	x := uint64(n)
	c.Uvarint(&x)
	if c.reading() && !c.checkLen(x) {
		return 0
	}
	return int(x)
}

// sized codes the length of *s and returns it; decoding, it makes *s that
// long (nil when empty) once Len has bounded the length by the bytes left.
func sized[T any](c *coder, s *[]T) int {
	n := c.Len(len(*s))
	if c.mode == decoding && n > 0 {
		*s = make([]T, n)
	}
	return n
}

// KVs codes a write set. Decoded, each value is its own allocation (see
// the package comment).
func (c *coder) KVs(kvs *[]KV) {
	sized(c, kvs)
	for i := range *kvs {
		c.kv(&(*kvs)[i])
	}
}

// kv codes one write of a write set.
func (c *coder) kv(kv *KV) {
	c.String(&kv.Key)
	c.value(&kv.Value)
	c.Bool(&kv.Tombstone)
}

// Items codes a read result: *items followed by every chunk, as one flat
// sequence (TxReadResp's Chunks). Decoded, it is all in *items, whose
// keys share one string and whose values share one arena.
func (c *coder) Items(items *[]Item, chunks [][]Item) {
	if c.mode == decoding {
		*items = c.items()
		return
	}
	n := len(*items)
	for _, ch := range chunks {
		n += len(ch)
	}
	c.Len(n)
	for i := range *items {
		c.item(&(*items)[i])
	}
	for _, ch := range chunks {
		for i := range ch {
			c.item(&ch[i])
		}
	}
}

// item encodes or sizes one item: its key and value, then the rest.
func (c *coder) item(it *Item) {
	c.String(&it.Key)
	c.value(&it.Value)
	it.codec(c)
}

// value codes a length-prefixed byte field that a decoded message owns.
func (c *coder) value(b *[]byte) {
	switch c.mode {
	case encoding:
		c.buf = binary.AppendUvarint(c.buf, uint64(len(*b)))
		c.buf = append(c.buf, *b...)
	case sizing:
		c.n += uvarintLen(uint64(len(*b))) + len(*b)
	default:
		*b = append([]byte(nil), c.bytesField()...) // its own allocation
	}
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// The decoding side of the primitives.

// reading reports whether c reads its input: decoding or skipping.
func (c *coder) reading() bool { return c.mode >= decoding }

func (c *coder) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

func (c *coder) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		c.fail(ErrTruncated)
		return 0
	}
	if n > 1 && c.buf[c.off+n-1] == 0 {
		c.fail(ErrNonCanonical)
		return 0
	}
	c.off += n
	return v
}

func (c *coder) fixed64() uint64 {
	if c.err != nil {
		return 0
	}
	if c.off+8 > len(c.buf) {
		c.fail(ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(c.buf[c.off:])
	c.off += 8
	return v
}

func (c *coder) byte() byte {
	if c.err != nil {
		return 0
	}
	if c.off >= len(c.buf) {
		c.fail(ErrTruncated)
		return 0
	}
	b := c.buf[c.off]
	c.off++
	return b
}

// skip consumes n bytes.
func (c *coder) skip(n uint64) {
	if c.err != nil {
		return
	}
	if n > uint64(len(c.buf)-c.off) {
		c.fail(ErrTruncated)
		return
	}
	c.off += int(n)
}

// bytesField reads a length-prefixed byte field aliasing the input.
func (c *coder) bytesField() []byte {
	n := c.uvarint()
	if c.err != nil {
		return nil
	}
	if n > maxSliceLen {
		c.fail(ErrTooLarge)
		return nil
	}
	if n > uint64(len(c.buf)-c.off) {
		c.fail(ErrTruncated)
		return nil
	}
	b := c.buf[c.off : c.off+int(n)]
	c.off += int(n)
	return b
}

// checkLen validates a collection length before anything is allocated
// for it: every element takes at least one byte, so a count beyond the
// bytes left is a truncated (or lying) frame, refused before a slice of
// that length exists.
func (c *coder) checkLen(n uint64) bool {
	if c.err != nil {
		return false
	}
	if n > maxSliceLen || n > uint64(math.MaxInt32) {
		c.fail(ErrTooLarge)
		return false
	}
	if n > uint64(len(c.buf)-c.off) {
		c.fail(ErrTruncated)
		return false
	}
	return true
}

// strings reads a string slice whose strings share one allocation: a
// walk that sizes it, then the decoding walk.
func (c *coder) strings() []string {
	n := c.uvarint()
	if !c.checkLen(n) || n == 0 {
		return nil
	}
	start, size := c.off, 0
	for range n {
		size += len(c.bytesField())
	}
	if c.err != nil {
		return nil
	}
	c.off = start
	var all strings.Builder
	all.Grow(size)
	out := make([]string, n)
	for i := range out {
		out[i] = appendString(&all, c.bytesField())
	}
	return out
}

// items reads a read result's items: a skipping walk that sizes the key
// string and the value arena, then the decoding walk, which copies every
// key and value into them (see the package comment).
func (c *coder) items() []Item {
	n := c.uvarint()
	if !c.checkLen(n) || n == 0 {
		return nil
	}
	start, keyBytes, valBytes := c.off, 0, 0
	c.mode = skipping
	for range n {
		var it Item
		k, v := c.bytesField(), c.bytesField()
		it.codec(c)
		keyBytes += len(k)
		valBytes += len(v)
	}
	c.mode = decoding
	if c.err != nil {
		return nil
	}
	c.off = start
	var keys strings.Builder
	keys.Grow(keyBytes)
	arena := make([]byte, 0, valBytes)
	out := make([]Item, n)
	for i := range out {
		k, v := c.bytesField(), c.bytesField()
		out[i].Key = appendString(&keys, k)
		if len(v) > 0 {
			arena = append(arena, v...)
			out[i].Value = arena[len(arena)-len(v) : len(arena) : len(arena)]
		}
		out[i].codec(c)
	}
	return out
}

// appendString appends b to all and returns b's bytes as a string sharing
// all's one allocation. A Builder that has room never moves or changes
// what it holds, so every string it returned stays valid; each walk above
// Grows it by what the decoding walk appends.
func appendString(all *strings.Builder, b []byte) string {
	all.Write(b)
	s := all.String()
	return s[len(s)-len(b):]
}

// Encode serializes a message payload (without framing).
func Encode(m Message) []byte {
	e := NewEncoder()
	m.codec(&e.c)
	return e.Bytes()
}

// EncodeInto serializes a message payload into e, appending to whatever e
// already holds. It lets callers reuse pooled encoders and prepend their
// own framing without an intermediate copy.
func EncodeInto(e *Encoder, m Message) { m.codec(&e.c) }

// Size returns the number of bytes the message occupies on the wire,
// including the frame header. This is the quantity the transport layer
// accounts per message class.
func Size(m Message) int {
	c := &coder{mode: sizing}
	m.codec(c)
	return c.n + headerSize
}

// Decode parses a message of the given kind from payload bytes. Nothing
// in the result aliases payload (see the package comment for who owns
// what), so the caller may reuse payload for the next frame at once.
func Decode(kind Kind, payload []byte) (Message, error) {
	if int(kind) >= len(kinds) || kinds[kind].new == nil {
		return nil, fmt.Errorf("wire: unknown message kind %d", kind)
	}
	m := kinds[kind].new()
	c := decoderPool.Get().(*coder)
	*c = coder{buf: payload, mode: decoding}
	m.codec(c)
	err := c.err
	*c = coder{}
	decoderPool.Put(c)
	if err != nil {
		return nil, fmt.Errorf("wire: decode %v: %w", kind, err)
	}
	return m, nil
}

// decoderPool recycles Decode's codec, which escapes through the message's
// codec method and would otherwise be one allocation per message.
var decoderPool = sync.Pool{New: func() any { return new(coder) }}
