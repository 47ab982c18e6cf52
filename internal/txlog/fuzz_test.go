package txlog

import (
	"bytes"
	"runtime"
	"testing"

	"wren/internal/wire"
)

// applyRecord's allocation budget for a hostile payload: a count or a
// length prefix alone must not reserve its claim, so what a record costs
// follows the bytes present.
const (
	fuzzAllocPerByte = 512
	fuzzAllocSlack   = 1 << 20
)

// FuzzApplyRecord feeds arbitrary payloads to the log's record parser and
// checks that it never panics, that decoding and applying a record
// allocates at most fuzzAllocPerByte per payload byte plus fuzzAllocSlack,
// and that every record that applies re-encodes through its kind's
// encoder to exactly the payload. The committed corpus under
// testdata/fuzz/FuzzApplyRecord (every record kind TestRecordFormatPinned
// pins) is replayed by go test.
func FuzzApplyRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		l, err := Open(Options{NumDCs: 4})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		apply, encode, err := decodeRecord(payload)
		if err == nil {
			apply(l)
		}
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(fuzzAllocPerByte*len(payload)+fuzzAllocSlack) {
			t.Fatalf("%d payload bytes allocated %d bytes", len(payload), alloc)
		}
		if err != nil {
			return
		}
		e := wire.NewEncoder()
		encode(e)
		if !bytes.Equal(e.Bytes(), payload) {
			t.Fatalf("record %x applies but re-encodes to %x", payload, e.Bytes())
		}
	})
}
