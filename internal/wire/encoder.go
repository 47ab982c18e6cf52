package wire

import (
	"slices"

	"wren/internal/hlc"
)

// Encoder writes the codec's primitives by value into a reusable buffer,
// for framed records that are not messages.
type Encoder struct{ c coder }

// NewEncoder returns an Encoder that writes into a fresh buffer.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.c.buf }

// Len returns the number of bytes written.
func (e *Encoder) Len() int { return len(e.c.buf) }

// Reset clears the encoder for reuse, keeping the buffer capacity. Pooled
// encoders (transport framing, WAL appends) call this between messages so
// steady-state encoding does not allocate.
func (e *Encoder) Reset() { e.c.buf = e.c.buf[:0] }

// Truncate drops every byte past the first n, keeping the capacity.
func (e *Encoder) Truncate(n int) { e.c.buf = e.c.buf[:n] }

// Reserve appends n zero bytes and returns their offset, so callers can
// back-patch a fixed-size header (length prefix, checksum) after the
// payload is encoded.
func (e *Encoder) Reserve(n int) int {
	off := len(e.c.buf)
	e.c.buf = slices.Grow(e.c.buf, n)[:off+n]
	clear(e.c.buf[off:])
	return off
}

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.c.Uvarint(&v) }

// Fixed64 appends a little-endian 8-byte integer.
func (e *Encoder) Fixed64(v uint64) { e.c.Timestamp((*hlc.Timestamp)(&v)) }

// Timestamp appends an hlc.Timestamp.
func (e *Encoder) Timestamp(t hlc.Timestamp) { e.c.Timestamp(&t) }

// Timestamps appends a length-prefixed timestamp vector.
func (e *Encoder) Timestamps(ts []hlc.Timestamp) { e.c.Timestamps(&ts) }

// Byte appends a single raw byte.
func (e *Encoder) Byte(b byte) { e.c.Byte(&b) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(b bool) { e.c.Bool(&b) }

// BytesField appends a length-prefixed byte slice.
func (e *Encoder) BytesField(b []byte) { e.c.value(&b) }

// String appends a length-prefixed string.
func (e *Encoder) String(s string) { e.c.String(&s) }

// Strings appends a length-prefixed string slice.
func (e *Encoder) Strings(ss []string) { e.c.Strings(&ss) }

// KVs appends a write set as the messages that carry one code it.
func (e *Encoder) KVs(kvs []KV) { e.c.KVs(&kvs) }

// Decoder reads the codec's primitives by value from a byte slice, for
// framed records that are not messages.
type Decoder struct{ c coder }

// NewDecoder returns a Decoder over the given payload.
func NewDecoder(b []byte) *Decoder { return &Decoder{coder{buf: b, mode: decoding}} }

// Err returns the first error encountered while decoding.
func (d *Decoder) Err() error { return d.c.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.c.buf) - d.c.off }

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 { return d.c.uvarint() }

// Fixed64 reads a little-endian 8-byte integer.
func (d *Decoder) Fixed64() uint64 { return d.c.fixed64() }

// Timestamp reads an hlc.Timestamp.
func (d *Decoder) Timestamp() hlc.Timestamp { return hlc.Timestamp(d.c.fixed64()) }

// Timestamps reads a length-prefixed timestamp vector. A zero-length vector
// decodes as nil.
func (d *Decoder) Timestamps() (ts []hlc.Timestamp) {
	d.c.Timestamps(&ts)
	return ts
}

// Byte reads a single raw byte.
func (d *Decoder) Byte() byte { return d.c.byte() }

// Bool reads a boolean.
func (d *Decoder) Bool() (b bool) {
	d.c.Bool(&b)
	return b
}

// BytesField reads a length-prefixed byte slice aliasing the input
// buffer; callers that retain it must copy.
func (d *Decoder) BytesField() []byte { return d.c.bytesField() }

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.c.bytesField()) }

// Strings reads a length-prefixed string slice whose strings share one
// allocation.
func (d *Decoder) Strings() []string { return d.c.strings() }

// KVs reads a write set, each value in its own allocation.
func (d *Decoder) KVs() (kvs []KV) {
	d.c.KVs(&kvs)
	return kvs
}
