// Package logrec defines the framed on-disk record format of the durable
// storage engine (the memtable+sorted-run engine in store/sst): one record
// per version, length-prefixed and CRC32-checksummed, with the payload
// produced by the internal/wire encoder. Keeping the format in one place means every log
// and run file in a data directory is scanned, validated and truncated by
// the exact same rules, and a future engine cannot drift from them.
//
// Record layout:
//
//	4 bytes  little-endian payload length
//	4 bytes  little-endian CRC32 (IEEE) of the payload
//	payload  key, tombstone flag, value, UT, RDT, TxID, SrcDC, DV
//
// A frame of zero length ends a scan exactly like a torn one. Eight zero
// bytes frame and checksum clean (the CRC32 of nothing is 0), no log in a
// data directory writes an empty record, and a log that keeps zero-filled
// space ahead of its appends (internal/txlog) ends where the zeros begin.
package logrec

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"
	"slices"

	"wren/internal/hlc"
	"wren/internal/store"
	"wren/internal/wire"
)

// HeaderSize is the per-record framing overhead: 4-byte payload length
// plus 4-byte CRC32 of the payload.
const HeaderSize = 8

// AppendFrame encodes one framed record at the end of enc's buffer: it
// reserves the header, runs encode to produce the payload, and back-patches
// the length and checksum. It is the record-agnostic core Append is built
// on; other durable subsystems (the transaction-lifecycle log in
// internal/txlog) frame their own payloads through it so every log file in
// a data directory tears and truncates by identical rules.
func AppendFrame(enc *wire.Encoder, encode func(*wire.Encoder)) {
	off := enc.Reserve(HeaderSize)
	encode(enc)
	buf := enc.Bytes()
	payload := buf[off+HeaderSize:]
	binary.LittleEndian.PutUint32(buf[off:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[off+4:], crc32.ChecksumIEEE(payload))
}

// Append encodes one version as a framed record at the end of enc's buffer
// and back-patches the length and checksum.
func Append(enc *wire.Encoder, key string, v *store.Version) {
	AppendFrame(enc, func(enc *wire.Encoder) {
		enc.String(key)
		enc.Bool(v.Value == nil)
		enc.BytesField(v.Value)
		enc.Timestamp(v.UT)
		enc.Timestamp(v.RDT)
		enc.Uvarint(v.TxID)
		enc.Byte(v.SrcDC)
		enc.Timestamps(v.DV)
	})
}

// Decode parses one record payload back into a version it owns.
func Decode(payload []byte) (string, *store.Version, error) {
	v := new(store.Version)
	key, _, err := DecodeInto(payload, v, nil)
	if err != nil {
		return "", nil, err
	}
	if v.Value != nil {
		v.Value = append([]byte{}, v.Value...)
	}
	return string(key), v, nil
}

// DecodeInto parses one record payload into v without copying: the key
// and v.Value alias payload (Value is nil for a tombstone and non-nil,
// possibly empty, otherwise). The dependency vector is appended to dvs,
// which is returned, and v.DV is the appended part, cap-limited (nil when
// the record has none) — callers decoding many records share one buffer.
func DecodeInto(payload []byte, v *store.Version, dvs []hlc.Timestamp) (key []byte, _ []hlc.Timestamp, err error) {
	d := wire.NewDecoder(payload)
	key = d.BytesField()
	tombstone := d.Bool()
	raw := d.BytesField()
	v.UT, v.RDT = d.Timestamp(), d.Timestamp()
	v.TxID, v.SrcDC = d.Uvarint(), d.Byte()
	start := len(dvs)
	for n := d.Uvarint(); n > 0 && d.Err() == nil; n-- {
		dvs = append(dvs, d.Timestamp())
	}
	if err := d.Err(); err != nil {
		return nil, dvs[:start], err
	}
	v.DV = nil
	if len(dvs) > start {
		v.DV = dvs[start:len(dvs):len(dvs)]
	}
	v.Value = nil
	if !tombstone {
		v.Value = raw[:len(raw):len(raw)]
	}
	return key, dvs, nil
}

// ScanFrames walks the intact prefix of a log file image, invoking fn with
// every payload that frames and checksums clean, and returns the byte
// offset just past the last intact record. A record whose length prefix is
// zero or runs off the buffer, whose checksum does not hold, or whose
// payload fn rejects (returns a non-nil error) — the footprint of a crash
// mid-append, or of zero-filled space behind the last record — ends the
// scan; callers decide whether the tail is truncated (log recovery) or
// fatal (immutable run files, which are only ever renamed into place
// complete).
//
// No upper bound is imposed on the record length beyond the buffer itself:
// a record of any size that was fully written and checksums clean is valid
// — an arbitrary cap would make one large committed value poison every
// record behind it. Corrupt lengths fail the bounds check or the CRC.
func ScanFrames(buf []byte, fn func(payload []byte) error) (good int) {
	for off := 0; off < len(buf); {
		rest := buf[off:]
		if len(rest) < HeaderSize {
			break // torn header
		}
		plen := binary.LittleEndian.Uint32(rest[:4])
		if plen == 0 {
			break // zero-filled space: nothing writes an empty record
		}
		if HeaderSize+int(plen) > len(rest) {
			break // torn payload (or a corrupt length running off the file)
		}
		payload := rest[HeaderSize : HeaderSize+int(plen)]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4:8]) {
			break // corrupt record
		}
		if fn(payload) != nil {
			break // payload does not parse: treat like a torn record
		}
		off += HeaderSize + int(plen)
		good = off
	}
	return good
}

// Scan is ScanFrames specialized to the version-record payload written by
// Append: fn receives every intact version record in file order.
func Scan(buf []byte, fn func(key string, v *store.Version)) (good int) {
	return ScanFrames(buf, func(payload []byte) error {
		key, v, err := Decode(payload)
		if err != nil {
			return err
		}
		fn(key, v)
		return nil
	})
}

// ScanReaderFrames is ScanFrames over an io.Reader: it walks the intact
// prefix of a log stream without ever materializing the whole file,
// invoking fn with every payload that frames and checksums clean, and
// returns the byte offset just past the last intact record. The torn-tail
// semantics are identical to ScanFrames — a torn header, zero length, torn
// payload, failed checksum or rejected payload ends the scan — so recovery code can
// switch between the two without changing its truncation rules. Memory use
// is bounded by the largest single record, not the file size, and a length
// prefix reserves no more than about twice the bytes behind it (see
// readPayload): the payload buffer is reused across records and fn must not
// retain it.
func ScanReaderFrames(r io.Reader, fn func(payload []byte) error) (good int64) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	var hdr [HeaderSize]byte
	var payload []byte
	var off int64
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return good // torn (or clean EOF at a record boundary)
		}
		plen := binary.LittleEndian.Uint32(hdr[:4])
		if plen == 0 {
			return good // zero-filled space: nothing writes an empty record
		}
		if payload, ok = readPayload(br, payload, int(plen)); !ok {
			return good // torn payload (or a corrupt length running off the file)
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
			return good // corrupt record
		}
		if fn(payload) != nil {
			return good // payload does not parse: treat like a torn record
		}
		off += HeaderSize + int64(plen)
		good = off
	}
}

// readPayload reads the n bytes of a payload into buf, reusing its
// capacity. A length prefix is not trusted until the bytes arrive: past
// what buf already holds, the buffer grows by at most its own size per
// read, so a corrupt length near 4 GiB over a short stream allocates about
// twice the bytes present, not the length claimed.
func readPayload(r io.Reader, buf []byte, n int) ([]byte, bool) {
	buf = buf[:0]
	for len(buf) < n {
		step := min(n-len(buf), max(cap(buf)-len(buf), len(buf), 1<<16))
		buf = slices.Grow(buf, step)
		got, err := io.ReadFull(r, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+got]
		if err != nil {
			return buf, false
		}
	}
	return buf, true
}

// ScanReader is ScanReaderFrames specialized to the version-record payload
// written by Append: fn receives every intact version record in stream
// order. Durable-engine recovery uses it so startup heap is bounded by
// record size rather than log-file size.
func ScanReader(r io.Reader, fn func(key string, v *store.Version)) (good int64) {
	return ScanReaderFrames(r, func(payload []byte) error {
		key, v, err := Decode(payload)
		if err != nil {
			return err
		}
		fn(key, v)
		return nil
	})
}
