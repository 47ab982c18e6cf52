package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"wren/internal/hlc"
)

// roundTrip encodes m, decodes it back, and compares.
func roundTrip(t *testing.T, m Message) {
	t.Helper()
	payload := Encode(m)
	if got, want := len(payload)+headerSize, Size(m); got != want {
		t.Errorf("%v: Size() = %d, but encoded+header = %d", m.Kind(), want, got)
	}
	back, err := Decode(m.Kind(), payload)
	if err != nil {
		t.Fatalf("%v: Decode: %v", m.Kind(), err)
	}
	if !reflect.DeepEqual(m, back) {
		t.Errorf("%v: round trip mismatch:\n got %#v\nwant %#v", m.Kind(), back, m)
	}
}

func ts(p int64, l uint16) hlc.Timestamp { return hlc.New(p, l) }

func TestRoundTripAllKinds(t *testing.T) {
	msgs := []Message{
		&StartTxReq{ReqID: 1, LST: ts(100, 1), RST: ts(90, 0)},
		&StartTxReq{ReqID: 2, DV: []hlc.Timestamp{ts(1, 0), ts(2, 0), ts(3, 0)}, Done: 1<<56 | 7},
		&StartTxResp{ReqID: 3, TxID: 77, LST: ts(100, 1), RST: ts(90, 0)},
		&StartTxResp{ReqID: 4, TxID: 78, SV: []hlc.Timestamp{ts(5, 5), ts(6, 6)}},
		&TxReadReq{ReqID: 5, TxID: 77, Keys: []string{"a", "bb", "ccc"}},
		&TxReadReq{ReqID: 6, TxID: 78},
		&TxReadResp{ReqID: 6, Expired: true},
		&TxReadResp{ReqID: 7, Items: []Item{
			{Key: "a", Value: []byte{1, 2}, UT: ts(10, 0), RDT: ts(5, 0), TxID: 3, SrcDC: 1},
			{Key: "b", Value: nil, UT: ts(11, 0), RDT: ts(6, 0), TxID: 4, SrcDC: 2,
				DV: []hlc.Timestamp{ts(1, 0), ts(2, 0)}},
		}, BlockedMicros: 1234},
		&CommitReq{ReqID: 8, TxID: 77, HWT: ts(55, 3), Writes: []KV{
			{Key: "x", Value: []byte("v1")},
			{Key: "y", Value: []byte("v2")},
		}},
		&CommitResp{ReqID: 9, CT: ts(123, 4)},
		&SliceReq{ReqID: 10, Keys: []string{"k"}, LT: ts(50, 0), RT: ts(40, 0)},
		&SliceReq{ReqID: 11, Keys: []string{"k"}, SV: []hlc.Timestamp{ts(1, 1)}},
		&SliceResp{ReqID: 12, Items: []Item{{Key: "k", Value: []byte("v"),
			UT: ts(9, 9), RDT: ts(8, 8), TxID: 2, SrcDC: 0}}, BlockedMicros: 42},
		&PrepareReq{ReqID: 13, TxID: 99, LT: ts(1, 1), RT: ts(2, 2), HT: ts(3, 3),
			Writes: []KV{{Key: "w", Value: []byte("z")}}},
		&PrepareResp{ReqID: 14, TxID: 99, PT: ts(77, 7)},
		&CommitTx{TxID: 99, CT: ts(88, 8)},
		&Replicate{SrcDC: 2, Partition: 5, Txs: []ReplTx{
			{TxID: 1, CT: ts(10, 1), RST: ts(9, 0), Writes: []KV{{Key: "a", Value: []byte("b")}}},
			{TxID: 2, CT: ts(10, 1), RST: ts(9, 0), DV: []hlc.Timestamp{ts(1, 0)},
				Writes: []KV{{Key: "c", Value: []byte("d")}, {Key: "e", Value: nil}}},
		}},
		&Heartbeat{SrcDC: 1, Partition: 3, TS: ts(1000, 0)},
		&StableBroadcast{Partition: 4, Local: ts(500, 1), RemoteMin: ts(400, 2)},
		&StableBroadcast{Partition: 4, VV: []hlc.Timestamp{ts(1, 0), ts(2, 0), ts(3, 0)}},
		&GCBroadcast{Partition: 6, Oldest: ts(333, 3)},
		&CommitResp{ReqID: 15, Code: CommitErrReadOnly, Err: "durability degraded"},
		&PrepareResp{ReqID: 16, TxID: 100, Err: "txlog frozen"},
		&Replicate{SrcDC: 1, Partition: 2, Resync: true, Txs: []ReplTx{
			{TxID: 3, CT: ts(11, 0), Writes: []KV{{Key: "r", Value: []byte("s")}}},
		}},
		&CommitAck{TxID: 99, Partition: 7},
		&ReplicateAck{DC: 2, Partition: 5, UpTo: ts(444, 4)},
		&HealthReq{ReqID: 17},
		&HealthResp{ReqID: 18, ReadOnly: true, Err: "wal: sync: broken"},
		&TxStatusReq{TxID: 321},
		&TxStatusResp{TxID: 321, CT: ts(555, 5), Committed: true},
		&ScanReq{ReqID: 19, Start: "a", End: "m", Limit: 100, LT: ts(50, 0), RT: ts(40, 0)},
		&ScanReq{ReqID: 20, Start: "", End: "", LT: ts(1, 0), RT: ts(1, 0)},
		&ScanResp{ReqID: 21, Items: []Item{{Key: "k", Value: []byte("v"),
			UT: ts(9, 9), RDT: ts(8, 8), TxID: 2, SrcDC: 1}}, More: true},
	}
	for _, m := range msgs {
		roundTrip(t, m)
	}
}

// TestTxReadRespChunksEncodeFlat: the fan-in keeps a large remote slice
// as a chunk by reference, and what goes on the wire must be the flat
// item sequence, Items then every chunk, with the same Size.
func TestTxReadRespChunksEncodeFlat(t *testing.T) {
	item := func(k string, tx uint64) Item {
		return Item{Key: k, Value: []byte("v-" + k), UT: ts(int64(tx), 0), TxID: tx, SrcDC: 1}
	}
	a := []Item{item("a", 1), item("b", 2)}
	b := []Item{item("c", 3)}
	c := []Item{item("d", 4), item("e", 5), item("f", 6)}
	chunked := &TxReadResp{ReqID: 9, Items: a, Chunks: [][]Item{b, c}, BlockedMicros: 7}
	flat := &TxReadResp{ReqID: 9, Items: slices.Concat(a, b, c), BlockedMicros: 7}
	got, want := Encode(chunked), Encode(flat)
	if !bytes.Equal(got, want) {
		t.Fatalf("chunked frame differs from the flat one:\n got %x\nwant %x", got, want)
	}
	if Size(chunked) != Size(flat) {
		t.Errorf("Size: chunked %d, flat %d", Size(chunked), Size(flat))
	}
	back, err := Decode(KindTxReadResp, got)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, flat) {
		t.Errorf("decoded %#v, want the flat items %#v", back, flat)
	}
}

func TestRoundTripEmptyValues(t *testing.T) {
	// nil vs empty byte slices normalize to nil after a round trip through
	// decodeKVs/decodeItems; check semantic equality explicitly.
	m := &CommitReq{ReqID: 1, TxID: 2, Writes: []KV{{Key: "k", Value: nil}}}
	payload := Encode(m)
	back, err := Decode(m.Kind(), payload)
	if err != nil {
		t.Fatal(err)
	}
	got := back.(*CommitReq)
	if got.Writes[0].Key != "k" || len(got.Writes[0].Value) != 0 {
		t.Errorf("empty value mishandled: %#v", got.Writes[0])
	}
}

func TestDecodeUnknownKind(t *testing.T) {
	if _, err := Decode(Kind(200), nil); err == nil {
		t.Error("Decode of unknown kind should fail")
	}
}

func TestDecodeTruncated(t *testing.T) {
	m := &PrepareReq{ReqID: 13, TxID: 99, LT: ts(1, 1), RT: ts(2, 2), HT: ts(3, 3),
		Writes: []KV{{Key: "w", Value: []byte("z")}}}
	payload := Encode(m)
	for cut := 0; cut < len(payload); cut++ {
		if _, err := Decode(m.Kind(), payload[:cut]); err == nil {
			// Some prefixes may decode by luck into valid shorter fields;
			// the critical property is that we never panic. But for this
			// message layout every strict prefix must fail.
			t.Errorf("Decode of %d-byte prefix unexpectedly succeeded", cut)
		}
	}
}

// TestDecodeGarbageNeverPanics feeds every kind from KindStartTxReq to
// KindBusyResp random payloads of up to 64 bytes.
func TestDecodeGarbageNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for kind := KindStartTxReq; kind <= KindBusyResp; kind++ {
		for range 200 {
			buf := make([]byte, rng.Intn(64))
			rng.Read(buf)
			// Must not panic; errors are fine.
			_, _ = Decode(kind, buf)
		}
	}
}

func TestWrenVsCureMetadataSizes(t *testing.T) {
	// A Wren replicated update carries 2 timestamps; a Cure update carries
	// an M-entry vector. With M=5 the Cure message must be strictly larger,
	// and the delta must be exactly (M)*8 bytes per tx (vector entries) plus
	// the 1-byte length prefix delta.
	wrenTx := ReplTx{TxID: 1, CT: ts(10, 0), RST: ts(9, 0),
		Writes: []KV{{Key: "key12345", Value: []byte("12345678")}}}
	cureTx := wrenTx
	cureTx.DV = []hlc.Timestamp{ts(1, 0), ts(2, 0), ts(3, 0), ts(4, 0), ts(5, 0)}

	wrenMsg := &Replicate{SrcDC: 0, Partition: 0, Txs: []ReplTx{wrenTx}}
	cureMsg := &Replicate{SrcDC: 0, Partition: 0, Txs: []ReplTx{cureTx}}

	wrenSize, cureSize := Size(wrenMsg), Size(cureMsg)
	if wrenSize >= cureSize {
		t.Errorf("Wren replicate (%dB) should be smaller than Cure (%dB)", wrenSize, cureSize)
	}
	if delta := cureSize - wrenSize; delta != 5*8 {
		t.Errorf("metadata delta = %dB, want 40B for a 5-entry vector", delta)
	}

	// Stabilization (§IV, Fig. 7a): Wren sends 2 scalars whatever M is —
	// an 18 B payload (Size adds the frame header): the partition, two
	// 8-byte timestamps and an empty vector's length prefix. Cure sends
	// the full M-entry vector, 8 B per DC.
	prevM, prevCure := 0, 0
	for _, m := range []int{2, 3, 5} {
		wrenStable := &StableBroadcast{Partition: 1, Local: ts(1, 0), RemoteMin: ts(2, 0)}
		cureStable := &StableBroadcast{Partition: 1, VV: make([]hlc.Timestamp, m)}
		for i := range cureStable.VV {
			cureStable.VV[i] = ts(int64(i+1), 0)
		}
		wrenSize, cureSize := len(Encode(wrenStable)), len(Encode(cureStable))
		if wrenSize != 18 {
			t.Errorf("M=%d: Wren stabilization = %dB, want 18B", m, wrenSize)
		}
		if wrenSize >= cureSize {
			t.Errorf("M=%d: Wren stabilization (%dB) should be smaller than Cure (%dB)", m, wrenSize, cureSize)
		}
		if prevM > 0 && cureSize-prevCure != 8*(m-prevM) {
			t.Errorf("M=%d: Cure stabilization grew %dB over M=%d, want %dB",
				m, cureSize-prevCure, prevM, 8*(m-prevM))
		}
		prevM, prevCure = m, cureSize
	}
}

func TestItemRoundTripProperty(t *testing.T) {
	f := func(key string, val []byte, ut, rdt uint64, txid uint64, src uint8) bool {
		it := Item{Key: key, Value: val, UT: hlc.Timestamp(ut), RDT: hlc.Timestamp(rdt),
			TxID: txid, SrcDC: src}
		m := &TxReadResp{ReqID: 1, Items: []Item{it}}
		back, err := Decode(m.Kind(), Encode(m))
		if err != nil {
			return false
		}
		got := back.(*TxReadResp).Items[0]
		return got.Key == key && string(got.Value) == string(val) &&
			got.UT == it.UT && got.RDT == it.RDT && got.TxID == txid && got.SrcDC == src
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindStartTxReq; k <= KindScanResp; k++ {
		if s := k.String(); s == "" || s[0] == 'K' && s[1] == 'i' {
			t.Errorf("Kind %d has no name: %q", k, s)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Error("unknown kind String() format wrong")
	}
	for c := ClassClient; c <= ClassControl; c++ {
		if s := c.String(); s == "" {
			t.Errorf("Class %d has no name", c)
		}
	}
	if Class(99).String() != "Class(99)" {
		t.Error("unknown class String() format wrong")
	}
}

func TestSizeIsAllocationFree(t *testing.T) {
	m := &Replicate{SrcDC: 1, Partition: 2, Txs: []ReplTx{
		{TxID: 1, CT: ts(1, 0), RST: ts(2, 0), Writes: []KV{{Key: "abc", Value: []byte("def")}}},
	}}
	allocs := testing.AllocsPerRun(100, func() {
		_ = Size(m)
	})
	// One alloc allowed for the encoder itself; payload must not allocate.
	if allocs > 1 {
		t.Errorf("Size allocates %.1f times per call, want <= 1", allocs)
	}
}

func TestEncoderDecoderPrimitives(t *testing.T) {
	e := NewEncoder()
	e.Uvarint(300)
	e.Fixed64(0xDEADBEEF)
	e.Byte(7)
	e.Bool(true)
	e.Bool(false)
	e.String("hello")
	e.BytesField([]byte{1, 2, 3})
	e.Strings([]string{"a", "b"})
	e.Timestamps([]hlc.Timestamp{ts(5, 5)})

	d := NewDecoder(e.Bytes())
	if v := d.Uvarint(); v != 300 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := d.Fixed64(); v != 0xDEADBEEF {
		t.Errorf("Fixed64 = %x", v)
	}
	if v := d.Byte(); v != 7 {
		t.Errorf("Byte = %d", v)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round trip failed")
	}
	if v := d.String(); v != "hello" {
		t.Errorf("String = %q", v)
	}
	if v := d.BytesField(); len(v) != 3 || v[2] != 3 {
		t.Errorf("BytesField = %v", v)
	}
	if v := d.Strings(); len(v) != 2 || v[1] != "b" {
		t.Errorf("Strings = %v", v)
	}
	if v := d.Timestamps(); len(v) != 1 || v[0] != ts(5, 5) {
		t.Errorf("Timestamps = %v", v)
	}
	if d.Err() != nil {
		t.Errorf("decoder error: %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", d.Remaining())
	}
}

func TestDecoderErrorsStick(t *testing.T) {
	d := NewDecoder([]byte{})
	_ = d.Fixed64() // fails
	if d.Err() == nil {
		t.Fatal("expected error")
	}
	// Subsequent reads must return zero values, not panic.
	if d.Uvarint() != 0 || d.Byte() != 0 || d.String() != "" {
		t.Error("reads after error should return zero values")
	}
}

// TestStabOnCarriers pins the stabilization metadata on the five intra-DC
// transaction messages that carry it: a stamp round-trips on each, costs 24
// bytes over an unstamped message, and the zero value — what Cure and
// H-Cure send — is a single trailing zero byte.
func TestStabOnCarriers(t *testing.T) {
	stab := Stab{Local: ts(500, 1), RemoteMin: ts(400, 2), Seen: ts(600, 3)}
	carriers := []struct {
		bare, stamped Message
	}{
		{&SliceReq{ReqID: 1, Keys: []string{"k"}, LT: ts(5, 0), RT: ts(4, 0)},
			&SliceReq{ReqID: 1, Keys: []string{"k"}, LT: ts(5, 0), RT: ts(4, 0), Stab: stab}},
		{&SliceResp{ReqID: 2, Items: []Item{{Key: "k", Value: []byte("v"), UT: ts(9, 9)}}},
			&SliceResp{ReqID: 2, Items: []Item{{Key: "k", Value: []byte("v"), UT: ts(9, 9)}}, Stab: stab}},
		{&PrepareReq{ReqID: 3, TxID: 9, HT: ts(3, 3), Writes: []KV{{Key: "w", Value: []byte("z")}}},
			&PrepareReq{ReqID: 3, TxID: 9, HT: ts(3, 3), Writes: []KV{{Key: "w", Value: []byte("z")}}, Stab: stab}},
		{&PrepareResp{ReqID: 4, TxID: 9, PT: ts(7, 7)},
			&PrepareResp{ReqID: 4, TxID: 9, PT: ts(7, 7), Stab: stab}},
		{&CommitTx{TxID: 9, CT: ts(8, 8)},
			&CommitTx{TxID: 9, CT: ts(8, 8), Stab: stab}},
	}
	for _, c := range carriers {
		roundTrip(t, c.bare)
		roundTrip(t, c.stamped)
		if got := Size(c.stamped) - Size(c.bare); got != 24 {
			t.Errorf("%v: a stamp costs %d bytes over the zero value, want 24", c.bare.Kind(), got)
		}
		if payload := Encode(c.bare); payload[len(payload)-1] != 0 {
			t.Errorf("%v: the zero Stab must encode as one trailing zero byte, payload ends % x", c.bare.Kind(), payload[len(payload)-4:])
		}
	}
	// One carrier to the byte: TxID varint (1) + CT (8) + absent Stab (1).
	if got := len(Encode(&CommitTx{TxID: 9, CT: ts(8, 8)})); got != 10 {
		t.Errorf("unstamped CommitTx payload is %d bytes, want 10", got)
	}
	// A partly filled stamp is not the zero value.
	roundTrip(t, &CommitTx{TxID: 9, CT: ts(8, 8), Stab: Stab{Seen: ts(1, 0)}})
}
