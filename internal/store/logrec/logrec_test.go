package logrec

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"testing"

	"wren/internal/hlc"
	"wren/internal/store"
	"wren/internal/wire"
)

func sample(i int) (string, *store.Version) {
	v := &store.Version{
		Value: []byte{byte(i), byte(i >> 8), 0, 7},
		UT:    hlc.Timestamp(100 + i),
		RDT:   hlc.Timestamp(50 + i),
		TxID:  uint64(i),
		SrcDC: uint8(i % 5),
	}
	if i%3 == 0 {
		v.Value = nil // tombstone
	}
	if i%4 == 0 {
		v.DV = []hlc.Timestamp{1, hlc.Timestamp(i), 3}
	}
	return "key-" + string(rune('a'+i%26)), v
}

func TestRoundTrip(t *testing.T) {
	enc := wire.NewEncoder()
	const n = 20
	for i := 0; i < n; i++ {
		k, v := sample(i)
		Append(enc, k, v)
	}
	buf := enc.Bytes()

	i := 0
	good := Scan(buf, func(key string, v *store.Version) {
		wantK, wantV := sample(i)
		if key != wantK {
			t.Fatalf("record %d: key %q, want %q", i, key, wantK)
		}
		if (v.Value == nil) != (wantV.Value == nil) || string(v.Value) != string(wantV.Value) {
			t.Fatalf("record %d: value %v, want %v", i, v.Value, wantV.Value)
		}
		if v.UT != wantV.UT || v.RDT != wantV.RDT || v.TxID != wantV.TxID || v.SrcDC != wantV.SrcDC {
			t.Fatalf("record %d: metadata %+v, want %+v", i, v, wantV)
		}
		if len(v.DV) != len(wantV.DV) {
			t.Fatalf("record %d: DV %v, want %v", i, v.DV, wantV.DV)
		}
		i++
	})
	if i != n {
		t.Fatalf("scanned %d records, want %d", i, n)
	}
	if good != len(buf) {
		t.Fatalf("good offset %d, want full buffer %d", good, len(buf))
	}
}

func TestScanStopsAtTornTail(t *testing.T) {
	enc := wire.NewEncoder()
	for i := 0; i < 5; i++ {
		k, v := sample(i)
		Append(enc, k, v)
	}
	whole := append([]byte(nil), enc.Bytes()...)

	// Cut mid-way through the final record.
	enc2 := wire.NewEncoder()
	for i := 0; i < 4; i++ {
		k, v := sample(i)
		Append(enc2, k, v)
	}
	wantGood := len(enc2.Bytes())
	torn := whole[:wantGood+3]

	count := 0
	good := Scan(torn, func(string, *store.Version) { count++ })
	if count != 4 || good != wantGood {
		t.Fatalf("torn scan: %d records, good=%d; want 4 records, good=%d", count, good, wantGood)
	}

	// Corrupting one payload byte of record 2 must stop the scan there —
	// records behind a bad checksum are unreachable by design.
	bad := append([]byte(nil), whole...)
	// Offset of record 2's payload: skip two records.
	off := 0
	for i := 0; i < 2; i++ {
		plen := binary.LittleEndian.Uint32(bad[off:])
		off += HeaderSize + int(plen)
	}
	bad[off+HeaderSize] ^= 0xFF
	count = 0
	Scan(bad, func(string, *store.Version) { count++ })
	if count != 2 {
		t.Fatalf("corrupt-record scan yielded %d records, want 2", count)
	}
}

func TestScanEmptyAndGarbage(t *testing.T) {
	if good := Scan(nil, func(string, *store.Version) { t.Fatal("fn called on empty buf") }); good != 0 {
		t.Fatalf("empty scan good=%d", good)
	}
	junk := []byte{0xFF, 0xFF, 0xFF, 0x7F, 9, 9, 9, 9, 1, 2, 3}
	if good := Scan(junk, func(string, *store.Version) { t.Fatal("fn called on junk") }); good != 0 {
		t.Fatalf("junk scan good=%d", good)
	}
}

// TestScanStopsAtZeroFill: eight zero bytes frame and checksum clean (the
// CRC32 of nothing is 0), so a zero-filled tail must end the scan by rule,
// not because every current payload parser happens to reject "".
func TestScanStopsAtZeroFill(t *testing.T) {
	enc := wire.NewEncoder()
	for i := 0; i < 3; i++ {
		k, v := sample(i)
		Append(enc, k, v)
	}
	records := append([]byte(nil), enc.Bytes()...)
	for _, zeros := range []int{1, 8, 4096} {
		buf := append(append([]byte(nil), records...), make([]byte, zeros)...)
		calls := 0
		fn := func(payload []byte) error {
			if len(payload) == 0 {
				t.Fatalf("%d zero bytes: fn called with an empty payload", zeros)
			}
			calls++
			return nil // accepts anything: the rule, not the parser, ends the scan
		}
		if good := ScanFrames(buf, fn); good != len(records) || calls != 3 {
			t.Fatalf("ScanFrames over %d zero bytes: good=%d after %d records, want %d after 3", zeros, good, calls, len(records))
		}
		calls = 0
		if good := ScanReaderFrames(bytes.NewReader(buf), fn); good != int64(len(records)) || calls != 3 {
			t.Fatalf("ScanReaderFrames over %d zero bytes: good=%d after %d records, want %d after 3", zeros, good, calls, len(records))
		}
	}
}

// TestScanReaderLengthBoundedByBytes: a header claiming 64 MiB over a
// short tail ends the scan as torn, and reserves nothing near the length
// it claims; records larger than the first read step still scan whole.
func TestScanReaderLengthBoundedByBytes(t *testing.T) {
	enc := wire.NewEncoder()
	for i := 0; i < 3; i++ {
		k, v := sample(i)
		Append(enc, k, v)
	}
	big := &store.Version{Value: bytes.Repeat([]byte{7}, 300<<10), UT: 1}
	Append(enc, "big", big)
	k, v := sample(3)
	Append(enc, k, v)
	records := append([]byte(nil), enc.Bytes()...)

	var got []string
	good := ScanReader(bytes.NewReader(records), func(key string, v *store.Version) { got = append(got, key) })
	if good != int64(len(records)) || len(got) != 5 || got[3] != "big" {
		t.Fatalf("scan of 5 records (one of 300 KiB): good=%d of %d, keys %q", good, len(records), got)
	}

	lie := binary.LittleEndian.AppendUint32(slices.Clone(records), 64<<20)
	lie = append(lie, 1, 2, 3, 4)           // a CRC nobody checks
	lie = append(lie, make([]byte, 100)...) // and far fewer bytes than claimed
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	good = ScanReaderFrames(bytes.NewReader(lie), func([]byte) error { return nil })
	runtime.ReadMemStats(&after)
	if good != int64(len(records)) {
		t.Fatalf("good=%d, want the %d bytes before the lying header", good, len(records))
	}
	// The reader's buffer, the reused 300 KiB payload buffer and the one
	// step taken over the short tail, but never the 64 MiB claimed.
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("a header claiming 64 MiB over 100 bytes allocated %d bytes, want under 1 MiB", grew)
	}
}
