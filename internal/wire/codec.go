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
	"strings"
	"sync"

	"wren/internal/hlc"
)

// ErrTruncated is returned when a decode runs out of bytes.
var ErrTruncated = errors.New("wire: truncated message")

// ErrTooLarge is returned when a length prefix exceeds sane limits.
var ErrTooLarge = errors.New("wire: length prefix too large")

// MaxFieldLen is the longest key or value a message can carry: Decode
// refuses a longer byte field, so a sender must refuse it first.
const MaxFieldLen = maxSliceLen

const (
	// maxSliceLen bounds decoded collection and byte-field lengths to
	// protect against corrupted or adversarial frames.
	maxSliceLen = 1 << 22
	// headerSize is the per-message framing overhead accounted by Size:
	// a 4-byte length prefix plus a 1-byte kind tag, mirroring the TCP
	// transport's framing.
	headerSize = 5
)

// Encoder serializes message fields into an internal buffer. When sizeOnly
// is set it only counts bytes, which lets Size run without allocating.
type Encoder struct {
	buf      []byte
	n        int
	sizeOnly bool
}

// NewEncoder returns an Encoder that writes into a fresh buffer.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes written (or counted).
func (e *Encoder) Len() int { return e.n }

// Reset clears the encoder for reuse, keeping the buffer capacity. Pooled
// encoders (transport framing, WAL appends) call this between messages so
// steady-state encoding does not allocate.
func (e *Encoder) Reset() {
	e.buf = e.buf[:0]
	e.n = 0
	e.sizeOnly = false
}

// Reserve appends n zero bytes and returns their offset, so callers can
// back-patch a fixed-size header (length prefix, checksum) after the
// payload is encoded.
func (e *Encoder) Reserve(n int) int {
	off := len(e.buf)
	e.n += n
	if e.sizeOnly {
		return off
	}
	for i := 0; i < n; i++ {
		e.buf = append(e.buf, 0)
	}
	return off
}

func (e *Encoder) writeByte(b byte) {
	e.n++
	if e.sizeOnly {
		return
	}
	e.buf = append(e.buf, b)
}

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) {
	if e.sizeOnly {
		var tmp [binary.MaxVarintLen64]byte
		e.n += binary.PutUvarint(tmp[:], v)
		return
	}
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	e.buf = append(e.buf, tmp[:n]...)
	e.n += n
}

// Fixed64 appends a little-endian 8-byte integer. Timestamps use fixed
// width so that message sizes are stable and comparable across protocols.
func (e *Encoder) Fixed64(v uint64) {
	e.n += 8
	if e.sizeOnly {
		return
	}
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	e.buf = append(e.buf, tmp[:]...)
}

// Timestamp appends an hlc.Timestamp.
func (e *Encoder) Timestamp(t hlc.Timestamp) { e.Fixed64(uint64(t)) }

// Timestamps appends a length-prefixed timestamp vector.
func (e *Encoder) Timestamps(ts []hlc.Timestamp) {
	e.Uvarint(uint64(len(ts)))
	for _, t := range ts {
		e.Timestamp(t)
	}
}

// Byte appends a single raw byte.
func (e *Encoder) Byte(b byte) { e.writeByte(b) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(b bool) {
	if b {
		e.writeByte(1)
	} else {
		e.writeByte(0)
	}
}

// Bytes appends a length-prefixed byte slice.
func (e *Encoder) BytesField(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.n += len(b)
	if e.sizeOnly {
		return
	}
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.n += len(s)
	if e.sizeOnly {
		return
	}
	e.buf = append(e.buf, s...)
}

// Strings appends a length-prefixed string slice.
func (e *Encoder) Strings(ss []string) {
	e.Uvarint(uint64(len(ss)))
	for _, s := range ss {
		e.String(s)
	}
}

// Decoder reads message fields from a byte slice.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a Decoder over the given payload.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first error encountered while decoding.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail(ErrTruncated)
		return 0
	}
	d.off += n
	return v
}

// Fixed64 reads a little-endian 8-byte integer.
func (d *Decoder) Fixed64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail(ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// Timestamp reads an hlc.Timestamp.
func (d *Decoder) Timestamp() hlc.Timestamp { return hlc.Timestamp(d.Fixed64()) }

// Timestamps reads a length-prefixed timestamp vector. A zero-length vector
// decodes as nil.
func (d *Decoder) Timestamps() []hlc.Timestamp {
	n := d.Uvarint()
	if !d.checkLen(n) || n == 0 {
		return nil
	}
	out := make([]hlc.Timestamp, n)
	for i := range out {
		out[i] = d.Timestamp()
	}
	if d.err != nil {
		return nil
	}
	return out
}

// Byte reads a single raw byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail(ErrTruncated)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// Bool reads a boolean.
func (d *Decoder) Bool() bool { return d.Byte() != 0 }

// skip consumes n bytes.
func (d *Decoder) skip(n uint64) {
	if d.err != nil {
		return
	}
	if n > uint64(d.Remaining()) {
		d.fail(ErrTruncated)
		return
	}
	d.off += int(n)
}

// BytesField reads a length-prefixed byte slice aliasing the input
// buffer; callers that retain it must copy.
func (d *Decoder) BytesField() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > maxSliceLen {
		d.fail(ErrTooLarge)
		return nil
	}
	if d.off+int(n) > len(d.buf) {
		d.fail(ErrTruncated)
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.BytesField()) }

// Strings reads a length-prefixed string slice whose strings share one
// allocation.
func (d *Decoder) Strings() []string {
	n := d.Uvarint()
	if !d.checkLen(n) || n == 0 {
		return nil
	}
	start, size := d.off, 0
	for range n {
		size += len(d.BytesField())
	}
	if d.err != nil {
		return nil
	}
	d.off = start
	all := d.joined(int(n), size, func() []byte { return d.BytesField() })
	out := make([]string, n)
	for i := range out {
		l := len(d.BytesField())
		out[i], all = all[:l], all[l:]
	}
	return out
}

// joined concatenates what field returns for each of the n records at the
// current offset into one string of size bytes, then restores the offset,
// so the caller walks the same records again and slices the string in
// order.
func (d *Decoder) joined(n, size int, field func() []byte) string {
	start := d.off
	var b strings.Builder
	b.Grow(size)
	for range n {
		b.Write(field())
	}
	d.off = start
	return b.String()
}

// Encode serializes a message payload (without framing).
func Encode(m Message) []byte {
	e := NewEncoder()
	m.encodeTo(e)
	return e.Bytes()
}

// EncodeInto serializes a message payload into e, appending to whatever e
// already holds. It lets callers reuse pooled encoders and prepend their
// own framing without an intermediate copy.
func EncodeInto(e *Encoder, m Message) {
	m.encodeTo(e)
}

// Size returns the number of bytes the message occupies on the wire,
// including the frame header. This is the quantity the transport layer
// accounts per message class.
func Size(m Message) int {
	e := &Encoder{sizeOnly: true}
	m.encodeTo(e)
	return e.Len() + headerSize
}

// Decode parses a message of the given kind from payload bytes. Nothing
// in the result aliases payload (see the package comment for who owns
// what), so the caller may reuse payload for the next frame at once.
func Decode(kind Kind, payload []byte) (Message, error) {
	m, err := newMessage(kind)
	if err != nil {
		return nil, err
	}
	d := decoderPool.Get().(*Decoder)
	*d = Decoder{buf: payload}
	m.decodeFrom(d)
	err = d.err
	*d = Decoder{}
	decoderPool.Put(d)
	if err != nil {
		return nil, fmt.Errorf("wire: decode %v: %w", kind, err)
	}
	return m, nil
}

// decoderPool recycles Decode's decoder, which escapes through the
// message's decodeFrom and would otherwise be one allocation per message.
var decoderPool = sync.Pool{New: func() any { return new(Decoder) }}

// sanity check that header constant fits real framing.
var _ = func() int {
	if headerSize != 4+1 {
		panic("headerSize must match TCP framing")
	}
	return 0
}()

// checkLen validates a collection length before anything is allocated
// for it: every element takes at least one byte, so a count beyond the
// bytes left is a truncated (or lying) frame, refused before a slice of
// that length exists.
func (d *Decoder) checkLen(n uint64) bool {
	if d.err != nil {
		return false
	}
	if n > maxSliceLen || n > uint64(math.MaxInt32) {
		d.fail(ErrTooLarge)
		return false
	}
	if n > uint64(d.Remaining()) {
		d.fail(ErrTruncated)
		return false
	}
	return true
}
