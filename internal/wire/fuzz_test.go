package wire

import (
	"bytes"
	"runtime"
	"testing"
)

// Decode's allocation budget for a hostile payload: a length prefix or a
// count alone must not reserve its claim, so what Decode allocates
// follows the bytes present.
const (
	fuzzAllocPerByte = 512
	fuzzAllocSlack   = 1 << 20
)

// FuzzDecode feeds arbitrary payloads of every kind to Decode and checks
// that it never panics, that its allocation stays within fuzzAllocPerByte
// per input byte plus fuzzAllocSlack, that a decoded message encodes to
// bytes that decode to a message encoding to the same bytes, and that
// Size counts that encoding plus the frame header. The committed corpus
// under testdata/fuzz/FuzzDecode (every golden frame, plus counts and
// lengths that lie) is replayed by go test.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind byte, payload []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := Decode(Kind(kind), payload)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(fuzzAllocPerByte*len(payload)+fuzzAllocSlack) {
			t.Fatalf("%v: %d payload bytes allocated %d bytes", Kind(kind), len(payload), alloc)
		}
		if err != nil {
			return
		}
		enc := Encode(m)
		if size := Size(m); size != len(enc)+headerSize {
			t.Fatalf("%v: Size %d, want the %d-byte encoding plus %d", m.Kind(), size, len(enc), headerSize)
		}
		back, err := Decode(m.Kind(), enc)
		if err != nil {
			t.Fatalf("%v: re-encoded %x does not decode: %v", m.Kind(), enc, err)
		}
		if again := Encode(back); !bytes.Equal(again, enc) {
			t.Fatalf("%v: %x decodes to a message encoding to %x", m.Kind(), enc, again)
		}
	})
}
