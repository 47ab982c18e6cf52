package wire

import (
	"testing"

	"wren/internal/hlc"
)

func TestPooledMessagesResetOnPut(t *testing.T) {
	req := GetSliceReq()
	req.ReqID = 7
	req.LT, req.RT = 10, 20
	req.Keys = append(req.Keys[:0], "a", "b")
	sv := []hlc.Timestamp{1, 2, 3}
	req.SV = sv
	req.Stab = Stab{Local: 30, RemoteMin: 20, Seen: 40}
	PutSliceReq(req)

	got := GetSliceReq()
	if got.ReqID != 0 || got.LT != 0 || got.RT != 0 || len(got.Keys) != 0 || got.SV != nil || got.Stab != (Stab{}) {
		t.Fatalf("pooled SliceReq not reset: %+v", got)
	}
	// The SV backing array must never be recycled: it aliases a
	// transaction's snapshot vector on the coordinator.
	got.SV = append(got.SV, 99)
	if sv[0] != 1 {
		t.Fatal("pooled SliceReq reused the caller's SV backing array")
	}
	PutSliceReq(got)

	resp := GetSliceResp()
	resp.ReqID = 9
	resp.BlockedMicros = 5
	resp.Items = append(resp.Items[:0], Item{Key: "k", Value: []byte("v")})
	resp.Stab = Stab{Local: 30, RemoteMin: 20, Seen: 40}
	PutSliceResp(resp)
	if got := GetSliceResp(); got.ReqID != 0 || got.BlockedMicros != 0 || len(got.Items) != 0 || got.Stab != (Stab{}) {
		t.Fatalf("pooled SliceResp not reset: %+v", got)
	}

	tr := GetTxReadResp()
	tr.ReqID = 11
	tr.Items = append(tr.Items[:0], Item{Key: "k"})
	PutTxReadResp(tr)
	if got := GetTxReadResp(); got.ReqID != 0 || len(got.Items) != 0 {
		t.Fatalf("pooled TxReadResp not reset: %+v", got)
	}
}

// TestSliceRespEncodeAllocs pins the slice-response encode path at zero
// allocations: a pooled encoder reused across frames (the TCP transport's
// steady state) must encode a populated SliceResp without touching the
// heap. Guards the PR 2 frame-encoder win against regression.
func TestSliceRespEncodeAllocs(t *testing.T) {
	items := make([]Item, 8)
	for i := range items {
		items[i] = Item{Key: "user00000001", Value: []byte("12345678"), UT: 12345, RDT: 99, TxID: 7, SrcDC: 1}
	}
	m := &SliceResp{ReqID: 42, Items: items}
	e := NewEncoder()
	e.Reset()
	EncodeInto(e, m) // warm the buffer to steady-state capacity
	allocs := testing.AllocsPerRun(200, func() {
		e.Reset()
		EncodeInto(e, m)
	})
	if allocs > 0 {
		t.Fatalf("pooled SliceResp encode allocates %.1f/op, want 0 (was 7 with a fresh encoder)", allocs)
	}
}

func BenchmarkSliceRespEncodePooled(b *testing.B) {
	items := make([]Item, 8)
	for i := range items {
		items[i] = Item{Key: "user00000001", Value: []byte("12345678"), UT: 12345, RDT: 99, TxID: 7, SrcDC: 1}
	}
	m := &SliceResp{ReqID: 42, Items: items}
	e := NewEncoder()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Reset()
		EncodeInto(e, m)
	}
}
