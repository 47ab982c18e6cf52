package wire

import (
	"testing"

	"wren/internal/hlc"
)

// benchReplicate builds a replication batch representative of the paper's
// workload: 8-byte values, small keys, per-protocol metadata.
func benchReplicate(dcs int) *Replicate {
	tx := ReplTx{
		TxID: 123456, CT: hlc.New(1_000_000, 3), RST: hlc.New(900_000, 1),
		Writes: []KV{{Key: "user00012345", Value: []byte("8bytes!!")}},
	}
	if dcs > 0 {
		tx.DV = make([]hlc.Timestamp, dcs)
		for i := range tx.DV {
			tx.DV[i] = hlc.New(int64(i)*1000, 0)
		}
	}
	return &Replicate{SrcDC: 1, Partition: 4, Txs: []ReplTx{tx}}
}

func BenchmarkEncodeReplicateWren(b *testing.B) {
	m := benchReplicate(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Encode(m)
	}
}

func BenchmarkEncodeReplicateCure5DC(b *testing.B) {
	m := benchReplicate(5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Encode(m)
	}
}

func BenchmarkDecodeReplicateWren(b *testing.B) {
	payload := Encode(benchReplicate(0))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(KindReplicate, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// benchReadResp is read_mem's read reply: 20 items of 8-byte values, with
// an M-entry dependency vector per item for Cure.
func benchReadResp(dcs int) *TxReadResp {
	items := make([]Item, 20)
	for i := range items {
		items[i] = Item{Key: "user0000001" + string(rune('a'+i)), Value: []byte("8bytes!!"), UT: hlc.New(1_000_000, 3), RDT: hlc.New(900_000, 1), TxID: uint64(i)}
		if dcs > 0 {
			items[i].DV = make([]hlc.Timestamp, dcs)
		}
	}
	return &TxReadResp{ReqID: 7, Items: items}
}

func BenchmarkDecodeTxReadResp(b *testing.B) {
	for _, dcs := range []int{0, 5} {
		payload := Encode(benchReadResp(dcs))
		b.Run(map[int]string{0: "Wren", 5: "Cure5DC"}[dcs], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(KindTxReadResp, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSizeReplicate(b *testing.B) {
	m := benchReplicate(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Size(m)
	}
}

func BenchmarkEncodeStableBroadcastWren(b *testing.B) {
	m := &StableBroadcast{Partition: 3, Local: hlc.New(1, 0), RemoteMin: hlc.New(2, 0)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Encode(m)
	}
}
