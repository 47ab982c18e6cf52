package wire

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"wren/internal/hlc"
)

// goldenFrame is one message and the payload bytes it must encode to.
type goldenFrame struct {
	name string
	m    Message
	hex  string
}

// goldenFrames holds one or more frames of every kind: Wren's scalars and
// Cure's vectors, a stamped and an unstamped Stab, an expired empty read
// result, and a read result whose Chunks must encode as the same items
// sent flat. The bytes were captured from the hand-written encoders, so a
// codec change that moves one byte shows here, not in a round trip.
func goldenFrames() []goldenFrame {
	stab := Stab{Local: ts(500, 1), RemoteMin: ts(400, 2), Seen: ts(600, 3)}
	dv := []hlc.Timestamp{ts(1, 0), ts(2, 0), ts(3, 0)}
	item := func(k, v string, tx uint64) Item {
		var val []byte
		if v != "" {
			val = []byte(v)
		}
		return Item{Key: k, Value: val, UT: ts(int64(tx)+10, 1), RDT: ts(int64(tx)+5, 0), TxID: tx, SrcDC: 1}
	}
	a, b, c := item("a", "v1", 1), item("bb", "", 2), item("ccc", "value", 3)
	cureItem := a
	cureItem.DV = dv
	writes := []KV{{Key: "x", Value: []byte("v1")}, {Key: "gone", Tombstone: true}, {Key: "empty"}}
	return []goldenFrame{
		{"StartTxReq/wren", &StartTxReq{ReqID: 1, LST: ts(100, 1), RST: ts(90, 0), Done: 1<<56 | 7}, "01010064000000000000005a000000000000878080808080808001"},
		{"StartTxReq/cure", &StartTxReq{ReqID: 2, DV: dv}, "02000000000000000000000000000000000300000100000000000000020000000000000003000000000000"},
		{"StartTxResp/wren", &StartTxResp{ReqID: 3, TxID: 77, LST: ts(100, 1), RST: ts(90, 0)}, "034d010064000000000000005a000000000000"},
		{"StartTxResp/cure", &StartTxResp{ReqID: 4, TxID: 78, SV: dv}, "044e0000000000000000000000000000000003000001000000000000000200000000000000030000000000"},
		{"TxReadReq", &TxReadReq{ReqID: 5, TxID: 77, Keys: []string{"a", "bb", "ccc"}}, "054d03016102626203636363"},
		{"TxReadReq/empty", &TxReadReq{ReqID: 6, TxID: 78}, "064e00"},
		{"TxReadResp/expired", &TxReadResp{ReqID: 6, Expired: true}, "06000001"},
		{"TxReadResp/wren", &TxReadResp{ReqID: 7, Items: []Item{a, b, c}}, "0703016102763101000b000000000000000600000000000101000262620001000c00000000000000070000000000020100036363630576616c756501000d000000000000000800000000000301000000"},
		{"TxReadResp/cure", &TxReadResp{ReqID: 7, Items: []Item{cureItem}, BlockedMicros: 1234}, "0701016102763101000b00000000000000060000000000010103000001000000000000000200000000000000030000000000d20900"},
		{"TxReadResp/chunks", &TxReadResp{ReqID: 7, Items: []Item{a}, Chunks: [][]Item{{b}, {c}}}, "0703016102763101000b000000000000000600000000000101000262620001000c00000000000000070000000000020100036363630576616c756501000d000000000000000800000000000301000000"},
		{"CommitReq", &CommitReq{ReqID: 8, TxID: 77, HWT: ts(55, 3), Writes: writes}, "084d03003700000000000301780276310004676f6e65000105656d7074790000"},
		{"CommitResp/ok", &CommitResp{ReqID: 9, CT: ts(123, 4)}, "0904007b00000000000000"},
		{"CommitResp/refused", &CommitResp{ReqID: 15, Code: CommitErrReadOnly, Err: "durability degraded"}, "0f000000000000000001136475726162696c697479206465677261646564"},
		{"SliceReq/wren", &SliceReq{ReqID: 10, Keys: []string{"k", "kk"}, LT: ts(50, 0), RT: ts(40, 0), Stab: stab}, "0a02016b026b6b0000320000000000000028000000000000010100f4010000000002009001000000000300580200000000"},
		{"SliceReq/cure", &SliceReq{ReqID: 11, Keys: []string{"k"}, SV: dv}, "0b01016b000000000000000000000000000000000300000100000000000000020000000000000003000000000000"},
		{"SliceResp/wren", &SliceResp{ReqID: 12, Items: []Item{a, c}, Stab: stab}, "0c02016102763101000b00000000000000060000000000010100036363630576616c756501000d0000000000000008000000000003010000010100f4010000000002009001000000000300580200000000"},
		{"SliceResp/cure", &SliceResp{ReqID: 12, Items: []Item{cureItem}, BlockedMicros: 42}, "0c01016102763101000b000000000000000600000000000101030000010000000000000002000000000000000300000000002a00"},
		{"PrepareReq/wren", &PrepareReq{ReqID: 13, TxID: 99, LT: ts(1, 1), RT: ts(2, 2), HT: ts(3, 3), Writes: writes, Stab: stab}, "0d63010001000000000002000200000000000300030000000000000301780276310004676f6e65000105656d7074790000010100f401000000000200900100000000030058020000000000"},
		{"PrepareReq/decide", &PrepareReq{ReqID: 13, TxID: 99, LT: ts(1, 1), RT: ts(2, 2), HT: ts(3, 3), Writes: writes[:1], Decide: true}, "0d6301000100000000000200020000000000030003000000000000010178027631000001"},
		{"PrepareReq/cure", &PrepareReq{ReqID: 13, TxID: 99, HT: ts(3, 3), SV: dv, Writes: writes[:1]}, "0d6300000000000000000000000000000000030003000000000003000001000000000000000200000000000000030000000000010178027631000000"},
		{"PrepareResp/wren", &PrepareResp{ReqID: 14, TxID: 99, PT: ts(77, 7), Stab: stab}, "0e6307004d000000000000010100f4010000000002009001000000000300580200000000"},
		{"PrepareResp/refused", &PrepareResp{ReqID: 16, TxID: 100, Err: "txlog frozen"}, "106400000000000000000c74786c6f672066726f7a656e00"},
		{"CommitTx/wren", &CommitTx{TxID: 99, CT: ts(88, 8), Stab: stab}, "630800580000000000010100f4010000000002009001000000000300580200000000"},
		{"CommitTx/abort", &CommitTx{TxID: 99}, "63000000000000000000"},
		{"Replicate/wren", &Replicate{SrcDC: 2, Partition: 300, Prev: ts(9, 0), Txs: []ReplTx{
			{TxID: 1, CT: ts(10, 1), RST: ts(9, 0), Writes: writes},
			{TxID: 2, CT: ts(10, 1), RST: ts(9, 0), Writes: writes[:1]},
		}}, "02ac02000000090000000000020101000a00000000000000090000000000000301780276310004676f6e65000105656d70747900000201000a000000000000000900000000000001017802763100"},
		{"Replicate/cure-resync", &Replicate{SrcDC: 1, Partition: 2, Resync: true, Txs: []ReplTx{
			{TxID: 3, CT: ts(11, 0), DV: dv, Writes: writes[1:]},
		}}, "0102010000000000000000010300000b00000000000000000000000000030000010000000000000002000000000000000300000000000204676f6e65000105656d7074790000"},
		{"Replicate/empty", &Replicate{SrcDC: 1, Partition: 2, Prev: ts(4, 0)}, "010200000004000000000000"},
		{"Heartbeat", &Heartbeat{SrcDC: 1, Partition: 3, TS: ts(1000, 0)}, "01030000e80300000000"},
		{"StableBroadcast/wren", &StableBroadcast{Partition: 4, Local: ts(500, 1), RemoteMin: ts(400, 2)}, "040100f40100000000020090010000000000"},
		{"StableBroadcast/cure", &StableBroadcast{Partition: 4, VV: dv}, "040000000000000000000000000000000003000001000000000000000200000000000000030000000000"},
		{"GCBroadcast", &GCBroadcast{Partition: 6, Oldest: ts(333, 3)}, "0603004d0100000000"},
		{"CommitAck", &CommitAck{TxID: 99, Partition: 7}, "6307"},
		{"ReplicateAck", &ReplicateAck{DC: 2, Partition: 5, UpTo: ts(444, 4)}, "02050400bc0100000000"},
		{"HealthReq", &HealthReq{ReqID: 17}, "11"},
		{"HealthResp", &HealthResp{ReqID: 18, ReadOnly: true, Err: "wal: sync: broken"}, "12011177616c3a2073796e633a2062726f6b656e"},
		{"TxStatusReq", &TxStatusReq{ReqID: 19, TxID: 321}, "13c102"},
		{"TxStatusResp", &TxStatusResp{ReqID: 19, TxID: 321, CT: ts(555, 5), Committed: true}, "13c10205002b020000000001"},
		{"ScanReq", &ScanReq{ReqID: 20, Start: "a", End: "m", Limit: 100, LT: ts(50, 0), RT: ts(40, 0)}, "140161016d6400003200000000000000280000000000"},
		{"ScanReq/open", &ScanReq{ReqID: 21, LT: ts(1, 0), RT: ts(1, 0)}, "1500000000000100000000000000010000000000"},
		{"ScanResp", &ScanResp{ReqID: 22, Items: []Item{a, b}, More: true}, "1602016102763101000b000000000000000600000000000101000262620001000c0000000000000007000000000002010001"},
		{"BusyResp", &BusyResp{ReqID: 23}, "17"},
	}
}

// TestFrameFormatPinned holds every kind's payload to the bytes pinned in
// goldenFrames, checks Size against them, and decodes each back to a
// message that encodes to the same bytes. Every kind must have a frame.
func TestFrameFormatPinned(t *testing.T) {
	kinds := map[Kind]bool{}
	for _, g := range goldenFrames() {
		kinds[g.m.Kind()] = true
		got := Encode(g.m)
		if hex.EncodeToString(got) != g.hex {
			t.Errorf("%s: encodes to\n  %x\nwant\n  %s", g.name, got, g.hex)
			continue
		}
		if Size(g.m) != len(got)+headerSize {
			t.Errorf("%s: Size %d, want %d", g.name, Size(g.m), len(got)+headerSize)
		}
		back, err := Decode(g.m.Kind(), got)
		if err != nil {
			t.Errorf("%s: decode: %v", g.name, err)
			continue
		}
		if again := Encode(back); !bytes.Equal(again, got) {
			t.Errorf("%s: decoded message encodes to %x, want %x", g.name, again, got)
		}
		if tr, ok := g.m.(*TxReadResp); (!ok || tr.Chunks == nil) && !reflect.DeepEqual(back, g.m) {
			t.Errorf("%s: decodes to %#v, want %#v", g.name, back, g.m)
		}
	}
	for k := KindStartTxReq; k <= KindBusyResp; k++ {
		if !kinds[k] {
			t.Errorf("%v has no golden frame", k)
		}
	}
	// The chunked read result is the flat one on the wire.
	var chunked, flat string
	for _, g := range goldenFrames() {
		switch g.name {
		case "TxReadResp/chunks":
			chunked = g.hex
		case "TxReadResp/wren":
			flat = g.hex
		}
	}
	if chunked != flat {
		t.Errorf("chunked TxReadResp frame %s differs from the flat one %s", chunked, flat)
	}
}
