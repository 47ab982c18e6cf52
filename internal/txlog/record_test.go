package txlog

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"testing"

	"wren/internal/hlc"
	"wren/internal/wire"
)

// frames splits the log's records into their framed bytes, in hex.
func frames(t *testing.T, l *Log) []string {
	t.Helper()
	buf, err := os.ReadFile(l.path())
	if err != nil {
		t.Fatal(err)
	}
	buf = buf[:recordBytes(l)]
	var out []string
	for len(buf) > 0 {
		n := 8 + int(binary.LittleEndian.Uint32(buf))
		out = append(out, hex.EncodeToString(buf[:n]))
		buf = buf[n:]
	}
	return out
}

// TestRecordFormatPinned holds the framed bytes of every record kind, as
// the live appends, a compaction's rewrite and Repair's probe write them,
// to bytes captured before the encoders were shared: a round trip cannot
// see the format drift, this can.
func TestRecordFormatPinned(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), NumDCs: 3, SelfDC: 0, Fsync: "never"})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.compactAt = math.MaxInt
	l.ReserveSeqs(9)
	l.LogPrepare(&PreparedTx{TxID: 1, PT: ts(10), RST: ts(5), SV: []hlc.Timestamp{ts(1), ts(2)},
		Writes: []wire.KV{kv("a", "v1"), {Key: "b", Tombstone: true}}})
	commit(l, 1, ts(12))
	l.LogPrepare(&PreparedTx{TxID: 2, PT: ts(20), Writes: []wire.KV{kv("c", "v")}})
	l.LogAbort(2)
	l.LogCoordCommitSync(3, ts(30), []uint16{0, 1})
	l.CoordAck(3, 0)
	l.CoordAck(3, 1)
	l.LogCoordCommitSync(4, ts(31), []uint16{1})
	l.CoordAbort(4)
	l.LogCoordCommitSync(6, ts(33), []uint16{0, 2})
	l.AdvanceCursor(1, ts(40))
	l.LogPrepare(&PreparedTx{TxID: 5, PT: ts(35), RST: ts(7), Writes: []wire.KV{kv("d", "v5")}})
	const (
		seq9      = "020000009c3c44770709"
		prepare1  = "2e000000e85cd6cf01010a00000000000000050000000000000002010000000000000002000000000000000201610276310001620001"
		commit1   = "0a00000047b9aba702010c00000000000000"
		prepare5  = "1a000000347a2b140105230000000000000007000000000000000001016402763500"
		decision6 = "0d000000f96a1bf703062100000000000000020002"
		cursor1   = "0a000000aca589d704012800000000000000"
	)
	live := []string{
		seq9, prepare1, commit1,
		"19000000ee63593301021400000000000000000000000000000000010163017600", // prepare 2
		"020000009687a0d20502",                       // abort 2
		"0d00000089f3234d03031e00000000000000020001", // decision 3
		"02000000c3e48a8e0603",                       // resolved 3 (CoordAck)
		"0c000000afbc2b0403041f000000000000000101",   // decision 4
		"020000006071ee100604",                       // resolved 4 (CoordAbort)
		decision6, cursor1, prepare5,
	}
	if got := frames(t, l); !slices.Equal(got, live) {
		t.Fatalf("live appends\n  %q\nwant\n  %q", got, live)
	}
	// Repair rewrites the retained state — a committed transaction as a
	// prepare at its commit timestamp plus its commit — and probes with the
	// sequence floor.
	l.InjectFailure(fmt.Errorf("injected"))
	if !l.Repair() {
		t.Fatalf("repair: %v", l.Healthy())
	}
	rewrite := []string{
		seq9, prepare5,
		"2e000000a4cd263301010c00000000000000050000000000000002010000000000000002000000000000000201610276310001620001", // prepare 1 @12
		commit1, decision6, cursor1,
		seq9, // Repair's probe
	}
	if got := frames(t, l); !slices.Equal(got, rewrite) {
		t.Fatalf("rewrite\n  %q\nwant\n  %q", got, rewrite)
	}
}

// TestPrepareWriteCountBoundedByRecord: a short prepare record whose write
// count claims 1<<22 writes is refused as torn, before a write set of that
// length exists.
func TestPrepareWriteCountBoundedByRecord(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), NumDCs: 2, SelfDC: 0, Fsync: "never"})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	e := wire.NewEncoder()
	encodePrepare(e, 7, ts(10), ts(5), nil, nil)
	record := append(e.Bytes()[:e.Len()-1], 0x80, 0x80, 0x80, 0x02) // the count 1<<22, and no writes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = l.applyRecord(record)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a prepare claiming 1<<22 writes in 4 bytes applied; want it refused as torn")
	}
	if _, ok := l.prepared[7]; ok {
		t.Error("the refused prepare is in the prepared set")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("refusing it allocated %d bytes, want under 1 MiB", grew)
	}
}
