package wire

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"wren/internal/hlc"
)

func readItems(n, valSize int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Key: fmt.Sprintf("user%08d", i), Value: make([]byte, valSize), UT: 1 << 40, RDT: 1 << 39, TxID: uint64(i), SrcDC: 1}
	}
	return items
}

func decodeAllocs(t *testing.T, m Message) float64 {
	t.Helper()
	payload := Encode(m)
	return testing.AllocsPerRun(100, func() {
		if _, err := Decode(m.Kind(), payload); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDecodeReadResultAllocs pins a read result's decode at a count per
// message: the message, its items, one key string and one value arena,
// whatever the item count and value size (it was two copies of every value
// and one string per key).
func TestDecodeReadResultAllocs(t *testing.T) {
	const pin = 4
	shapes := map[string]func([]Item) Message{
		"TxReadResp": func(items []Item) Message { return &TxReadResp{ReqID: 1, Items: items} },
		"SliceResp":  func(items []Item) Message { return &SliceResp{ReqID: 1, Items: items} },
		"ScanResp":   func(items []Item) Message { return &ScanResp{ReqID: 1, Items: items, More: true} },
	}
	for name, build := range shapes {
		var first float64 = -1
		for _, n := range []int{1, 20, 64} {
			for _, size := range []int{8, 1024} {
				got := decodeAllocs(t, build(readItems(n, size)))
				t.Logf("%s %d×%d B: %.0f allocations", name, n, size, got)
				if got > pin {
					t.Errorf("%s with %d items of %d B: %.0f allocations, want at most %d", name, n, size, got, pin)
				}
				if first < 0 {
					first = got
				} else if got != first {
					t.Errorf("%s with %d items of %d B: %.0f allocations, %.0f with one 8 B item: the cost follows the items", name, n, size, got, first)
				}
			}
		}
	}
}

// TestDecodeKeyListAllocs pins a key list at one string per message: the
// message, the slice and the shared string.
func TestDecodeKeyListAllocs(t *testing.T) {
	const pin = 3
	for _, n := range []int{1, 20, 64} {
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("user%08d", i)
		}
		for _, m := range []Message{
			&TxReadReq{ReqID: 1, TxID: 2, Keys: keys},
			&SliceReq{ReqID: 1, Keys: keys, LT: 5, RT: 4},
		} {
			if got := decodeAllocs(t, m); got > pin {
				t.Errorf("%v with %d keys: %.0f allocations, want at most %d", m.Kind(), n, got, pin)
			}
		}
	}
}

// TestDecodeWriteSetAllocs: a write keeps its key and value, each in its
// own allocation, and nothing else (the value was copied twice).
func TestDecodeWriteSetAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		writes := make([]KV, n)
		for i := range writes {
			writes[i] = KV{Key: fmt.Sprintf("user%08d", i), Value: make([]byte, 1024)}
		}
		return decodeAllocs(t, &CommitReq{ReqID: 1, TxID: 2, HWT: 3, Writes: writes})
	}
	one := allocs(1)
	for _, n := range []int{4, 16} {
		got := allocs(n)
		if perWrite := (got - one) / float64(n-1); perWrite > 2 {
			t.Errorf("CommitReq with %d writes: %.0f allocations, %.2f per write, want at most 2", n, got, perWrite)
		}
		if got > float64(2*n+2) {
			t.Errorf("CommitReq with %d writes: %.0f allocations, want at most %d", n, got, 2*n+2)
		}
	}
}

// TestDecodeCountBoundedByFrame: a collection count larger than the bytes
// left in the frame is refused before anything is allocated for it.
func TestDecodeCountBoundedByFrame(t *testing.T) {
	lie := func(prefix ...byte) []byte { // prefix, then a count of 1<<22 and nothing more
		return append(prefix, 0x80, 0x80, 0x80, 0x02)
	}
	cases := []struct {
		kind    Kind
		payload []byte
	}{
		{KindTxReadResp, lie(1)},                                                 // ReqID, item count
		{KindTxReadReq, lie(1, 2)},                                               // ReqID, TxID, key count
		{KindCommitReq, lie(1, 2, 0, 0, 0, 0, 0, 0, 0, 0)},                       // ReqID, TxID, HWT, write count
		{KindStartTxReq, lie(1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)}, // ReqID, LST, RST, DV length
	}
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(c.kind, c.payload)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("%v: a %d-byte payload claiming 1<<22 elements decoded with error %v, want ErrTruncated", c.kind, len(c.payload), err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 4<<10 && !raceEnabled {
			t.Errorf("%v: a %d-byte payload claiming 1<<22 elements allocated %d bytes before failing, want under 4 KiB", c.kind, len(c.payload), grew)
		}
	}
}

// TestDecodeEmptyTombstoneOneByte: one message of each collection kind
// carrying an empty value, a tombstone and a one-byte value decodes each
// to its length and flag, and appending to one decoded value leaves its
// neighbours alone, though a read result's values share one arena.
func TestDecodeEmptyTombstoneOneByte(t *testing.T) {
	appendLeavesNeighbours := func(t *testing.T, vals [][]byte) {
		t.Helper()
		for i := range vals {
			before := make([]string, len(vals))
			for j, v := range vals {
				before[j] = string(v)
			}
			_ = append(vals[i], 0xEE, 0xEE)
			for j, v := range vals {
				if string(v) != before[j] {
					t.Fatalf("appending to value %d changed value %d: %q, was %q", i, j, v, before[j])
				}
			}
		}
	}
	decode := func(t *testing.T, m Message) Message {
		t.Helper()
		back, err := Decode(m.Kind(), Encode(m))
		if err != nil {
			t.Fatal(err)
		}
		return back
	}

	t.Run("Items", func(t *testing.T) {
		in := []Item{{Key: "empty", Value: []byte{}}, {Key: "tomb"}, {Key: "one", Value: []byte{'x'}}, {Key: "two", Value: []byte("yz")}}
		got := decode(t, &TxReadResp{ReqID: 1, Items: in}).(*TxReadResp).Items
		vals := make([][]byte, len(got))
		for i, it := range got {
			if it.Key != in[i].Key || string(it.Value) != string(in[i].Value) {
				t.Fatalf("item %d decoded as %q=%q, want %q=%q", i, it.Key, it.Value, in[i].Key, in[i].Value)
			}
			vals[i] = it.Value
		}
		appendLeavesNeighbours(t, vals)
	})
	t.Run("Keys", func(t *testing.T) {
		in := []string{"", "k", "", "kk"}
		got := decode(t, &SliceReq{ReqID: 1, Keys: in}).(*SliceReq).Keys
		if !slices.Equal(got, in) {
			t.Fatalf("keys decoded as %q, want %q", got, in)
		}
	})
	t.Run("KVs", func(t *testing.T) {
		in := []KV{{Key: "empty", Value: []byte{}}, {Key: "tomb", Tombstone: true}, {Key: "one", Value: []byte{'x'}}, {Key: "two", Value: []byte("yz")}}
		m := &Replicate{Txs: []ReplTx{{TxID: 1, CT: 2, Writes: in}}, Prev: hlc.Timestamp(1)}
		got := decode(t, m).(*Replicate).Txs[0].Writes
		vals := make([][]byte, len(got))
		for i, kv := range got {
			if kv.Key != in[i].Key || string(kv.Value) != string(in[i].Value) || kv.Tombstone != in[i].Tombstone {
				t.Fatalf("write %d decoded as %+v, want %+v", i, kv, in[i])
			}
			if vv := kv.VersionValue(); (vv == nil) != in[i].Tombstone {
				t.Fatalf("write %d (%q): VersionValue nil = %v, want %v", i, kv.Key, vv == nil, in[i].Tombstone)
			}
			vals[i] = kv.Value
		}
		appendLeavesNeighbours(t, vals)
	})
}
