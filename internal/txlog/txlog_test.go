package txlog

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wren/internal/hlc"
	"wren/internal/obs"
	"wren/internal/wire"
)

func ts(v uint64) hlc.Timestamp { return hlc.Timestamp(v) }

func openLog(t *testing.T, dir string, numDCs int) *Log {
	t.Helper()
	l, err := Open(Options{Dir: dir, NumDCs: numDCs, SelfDC: 0, Fsync: "always"})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func kv(key, val string) wire.KV { return wire.KV{Key: key, Value: []byte(val)} }

// commit logs id's outcome the way a server does: as the prepare it
// holds, committed at ct (an unknown id commits nothing).
func commit(l *Log, id uint64, ct hlc.Timestamp) bool {
	l.sh.Mu.Lock()
	p := l.prepared[id]
	l.sh.Mu.Unlock()
	if p == nil {
		p = &PreparedTx{TxID: id}
	}
	return l.LogCommit(p.Committed(ct))
}

// recordBytes is how many bytes of the file are records; the file itself
// is longer by the zero-filled region behind them.
func recordBytes(l *Log) int64 {
	l.sh.Mu.Lock()
	defer l.sh.Mu.Unlock()
	return l.sh.Size
}

func TestPrepareCommitRecovery(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, 2)
	l.LogPrepare(&PreparedTx{TxID: 1, PT: ts(100), RST: ts(50), Writes: []wire.KV{kv("a", "v1")}})
	l.LogPrepare(&PreparedTx{TxID: 2, PT: ts(110), RST: ts(50), Writes: []wire.KV{kv("b", "v2")}})
	if !commit(l, 1, ts(120)) {
		t.Fatal("LogCommit(1) reported unknown")
	}
	if commit(l, 1, ts(120)) {
		t.Fatal("duplicate LogCommit(1) must report false")
	}
	l.Sync()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := openLog(t, dir, 2)
	defer r.Close()
	committed := r.Committed()
	if len(committed) != 1 || committed[0].TxID != 1 || committed[0].CT != ts(120) {
		t.Fatalf("recovered committed = %+v, want tx 1 @120", committed)
	}
	if committed[0].RST != ts(50) || string(committed[0].Writes[0].Value) != "v1" {
		t.Fatalf("recovered committed lost metadata: %+v", committed[0])
	}
	prepared := r.Prepared()
	if len(prepared) != 1 || prepared[0].TxID != 2 {
		t.Fatalf("recovered prepared = %+v, want tx 2", prepared)
	}
}

func TestCoordCommitResolution(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, 1)
	l.LogCoordCommitSync(7, ts(200), []uint16{0, 1})
	l.LogCoordCommitSync(8, ts(210), []uint16{2})
	l.CoordAck(7, 0)
	l.CoordAck(7, 1) // fully acked: resolved
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	r := openLog(t, dir, 1)
	defer r.Close()
	pending := r.CoordPending()
	if len(pending) != 1 || pending[0].TxID != 8 || pending[0].CT != ts(210) {
		t.Fatalf("pending = %+v, want only tx 8", pending)
	}
	if got := pending[0].Cohorts; len(got) != 1 || got[0] != 2 {
		t.Fatalf("cohorts = %v, want [2]", got)
	}
}

// TestCoordCommitSyncBatchedDurable hammers the batched ack-path decision
// writer from many goroutines under fsync=always and proves every decision
// both survives a reopen and is already synced when the call returns (the
// group commit trades syscalls, never durability).
func TestCoordCommitSyncBatchedDurable(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, 1)
	const writers, decisions = 8, 20
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < decisions; i++ {
				txID := uint64(w*decisions + i + 1)
				l.LogCoordCommitSync(txID, ts(300+txID), []uint16{0})
			}
		}(w)
	}
	for w := 0; w < writers; w++ {
		<-done
	}
	if err := l.Healthy(); err != nil {
		t.Fatalf("log degraded after batched decisions: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	r := openLog(t, dir, 1)
	defer r.Close()
	pending := r.CoordPending()
	if len(pending) != writers*decisions {
		t.Fatalf("recovered %d pending decisions, want %d", len(pending), writers*decisions)
	}
	seen := make(map[uint64]bool, len(pending))
	for _, c := range pending {
		if c.CT != ts(300+c.TxID) {
			t.Fatalf("tx %d recovered with ct %d, want %d", c.TxID, c.CT, 300+c.TxID)
		}
		seen[c.TxID] = true
	}
	if len(seen) != writers*decisions {
		t.Fatalf("recovered %d distinct decisions, want %d", len(seen), writers*decisions)
	}
}

// TestCoordCommitSyncInterval covers the policy where the decision rides
// the interval sync instead of its own.
func TestCoordCommitSyncInterval(t *testing.T) {
	opts := Options{Dir: t.TempDir(), NumDCs: 1, Fsync: "interval"}
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	l.LogCoordCommitSync(5, ts(500), []uint16{0, 1})
	l.Sync()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	pending := r.CoordPending()
	if len(pending) != 1 || pending[0].TxID != 5 || pending[0].CT != ts(500) {
		t.Fatalf("pending = %+v, want tx 5 @500", pending)
	}
}

func TestCursorPersistsAndBoundsTail(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, 3)
	for i := uint64(1); i <= 4; i++ {
		l.LogPrepare(&PreparedTx{TxID: i, PT: ts(i * 10), Writes: []wire.KV{kv("k", "v")}})
		commit(l, i, ts(i*10))
	}
	l.AdvanceCursor(1, ts(20))
	l.AdvanceCursor(2, ts(40))
	l.AdvanceCursor(1, ts(10)) // regression ignored
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	r := openLog(t, dir, 3)
	defer r.Close()
	if got := r.Cursor(1); got != ts(20) {
		t.Fatalf("cursor[1] = %v, want 20", got)
	}
	tail := r.UnreplicatedTail(1)
	if len(tail) != 2 || tail[0].CT != ts(30) || tail[1].CT != ts(40) {
		t.Fatalf("tail for dc1 = %+v, want cts 30,40 in order", tail)
	}
	if tail = r.UnreplicatedTail(2); len(tail) != 0 {
		t.Fatalf("tail for dc2 = %+v, want empty", tail)
	}
}

func TestAbortReleasesPrepare(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, 1)
	l.LogPrepare(&PreparedTx{TxID: 5, PT: ts(10), Writes: []wire.KV{kv("x", "y")}})
	l.LogAbort(5)
	if commit(l, 5, ts(20)) {
		t.Fatal("commit after abort must be a no-op")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r := openLog(t, dir, 1)
	defer r.Close()
	if p := r.Prepared(); len(p) != 0 {
		t.Fatalf("aborted prepare resurrected: %+v", p)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, 1)
	l.LogPrepare(&PreparedTx{TxID: 1, PT: ts(10), Writes: []wire.KV{kv("a", "v")}})
	commit(l, 1, ts(20))
	end := recordBytes(l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Garbage where the next record would start, simulating a torn one.
	path := filepath.Join(dir, "commit.log")
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xde, 0xad, 0xbe}, end); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cleared, cancel := obs.Subscribe("txlog.torn_tail_cleared")
	defer cancel()
	r := openLog(t, dir, 1)
	committed := r.Committed()
	if len(committed) != 1 || committed[0].TxID != 1 {
		t.Fatalf("recovery after torn tail = %+v", committed)
	}
	select {
	case e := <-cleared:
		if want := fmt.Sprintf("txlog.torn_tail_cleared bytes=3 offset=%d dir=%s", end, dir); e.String() != want {
			t.Fatalf("torn-tail event %q, want %q", e, want)
		}
	default:
		t.Fatal("clearing the torn tail logged no event")
	}
	// New appends after the clearing must survive another cycle.
	r.LogPrepare(&PreparedTx{TxID: 2, PT: ts(30), Writes: []wire.KV{kv("b", "w")}})
	commit(r, 2, ts(40))
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := openLog(t, dir, 1)
	defer r2.Close()
	if got := r2.Committed(); len(got) != 2 {
		t.Fatalf("post-truncation appends lost: %+v", got)
	}
	if len(cleared) != 0 {
		t.Fatalf("a clean reopen logged %v", <-cleared)
	}
}

// TestDurabilityEvents: a log attached to a server's registry logs its
// first failure as "txlog.degraded" and a successful repair as
// "txlog.restored", both naming the server; a log without a file names no
// directory.
func TestDurabilityEvents(t *testing.T) {
	degraded, cancel := obs.Subscribe("txlog.degraded")
	defer cancel()
	restored, cancel2 := obs.Subscribe("txlog.restored")
	defer cancel2()
	for _, dir := range []string{t.TempDir(), ""} {
		l := openLog(t, dir, 1)
		l.Observe(obs.New("core dc0/p3"))
		l.InjectFailure(fmt.Errorf("disk gone"))
		l.InjectFailure(fmt.Errorf("still gone")) // only the first is an event
		if !l.Repair() {
			t.Fatalf("dir %q: repair failed: %v", dir, l.Healthy())
		}
		where := ""
		if dir != "" {
			where = " dir=" + dir
		}
		for ch, want := range map[<-chan obs.Event]string{
			degraded: "core dc0/p3: txlog.degraded err=disk gone" + where,
			restored: "core dc0/p3: txlog.restored" + where,
		} {
			select {
			case e := <-ch:
				if e.String() != want {
					t.Fatalf("event %q, want %q", e, want)
				}
			default:
				t.Fatalf("no event %q", want)
			}
		}
		if len(degraded) != 0 {
			t.Fatalf("dir %q: a second failure logged %v", dir, <-degraded)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompactionReleasesFinishedRecords(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, NumDCs: 2, SelfDC: 0, Fsync: "never", CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 6; i++ {
		l.LogPrepare(&PreparedTx{TxID: i, PT: ts(i * 10), Writes: []wire.KV{kv("k", "v")}})
		commit(l, i, ts(i*10))
	}
	// txs 1..3 applied and confirmed by the only peer; 4..6 still needed.
	l.MarkApplied([]uint64{1, 2, 3})
	l.AdvanceCursor(1, ts(35))
	before := recordBytes(l)
	l.Compact()
	if after := recordBytes(l); after >= before {
		t.Fatalf("compaction did not shrink the log: %d -> %d", before, after)
	}
	if got := l.Committed(); len(got) != 3 || got[0].CT != ts(40) {
		t.Fatalf("retained after compact = %+v, want cts 40,50,60", got)
	}
	// Appends after compaction land in the renamed file and survive.
	l.LogPrepare(&PreparedTx{TxID: 7, PT: ts(70), Writes: []wire.KV{kv("z", "v7")}})
	commit(l, 7, ts(70))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r := openLog(t, dir, 2)
	defer r.Close()
	got := r.Committed()
	if len(got) != 4 || got[3].CT != ts(70) {
		t.Fatalf("recovered after compact+append = %+v, want 4 txs ending at 70", got)
	}
	if c := r.Cursor(1); c != ts(35) {
		t.Fatalf("cursor lost by compaction: %v", c)
	}
}

func TestReleaseRequiresBothAppliedAndReplicated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, NumDCs: 2, SelfDC: 0, Fsync: "never", CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.LogPrepare(&PreparedTx{TxID: 1, PT: ts(10), Writes: []wire.KV{kv("a", "v")}})
	commit(l, 1, ts(10))

	l.MarkApplied([]uint64{1}) // applied but not replicated
	l.Compact()
	if got := l.Committed(); len(got) != 1 {
		t.Fatalf("record released before replication confirmed: %+v", got)
	}
	l.AdvanceCursor(1, ts(10)) // now both
	l.Compact()
	if got := l.Committed(); len(got) != 0 {
		t.Fatalf("record not released after apply+replication: %+v", got)
	}
}

func TestSingleDCReleasesOnApplyAlone(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, NumDCs: 1, SelfDC: 0, Fsync: "never", CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.LogPrepare(&PreparedTx{TxID: 1, PT: ts(10), Writes: []wire.KV{kv("a", "v")}})
	commit(l, 1, ts(10))
	l.MarkApplied([]uint64{1})
	l.Compact()
	if got := l.Committed(); len(got) != 0 {
		t.Fatalf("single-DC record not released on apply: %+v", got)
	}
}

func TestSVRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, 3)
	sv := []hlc.Timestamp{ts(1), ts(2), ts(3)}
	l.LogPrepare(&PreparedTx{TxID: 9, PT: ts(10), SV: sv, Writes: []wire.KV{
		{Key: "t", Tombstone: true},
		kv("u", ""),
	}})
	commit(l, 9, ts(12))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r := openLog(t, dir, 3)
	defer r.Close()
	got := r.Committed()
	if len(got) != 1 || len(got[0].SV) != 3 || got[0].SV[2] != ts(3) {
		t.Fatalf("snapshot vector lost: %+v", got)
	}
	if !got[0].Writes[0].Tombstone || got[0].Writes[0].Value != nil {
		t.Fatalf("tombstone flag lost: %+v", got[0].Writes[0])
	}
	if got[0].Writes[1].Tombstone {
		t.Fatalf("empty value decoded as tombstone: %+v", got[0].Writes[1])
	}
}

func TestSeqFloorSurvivesCompactionAndRestart(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, NumDCs: 1, SelfDC: 0, Fsync: "never", CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Transaction ids carry DC/partition in the top bytes; the floor is
	// the 40-bit sequence component.
	id := func(seq uint64) uint64 { return 1<<56 | 2<<40 | seq }
	l.LogPrepare(&PreparedTx{TxID: id(7), PT: ts(10), Writes: []wire.KV{kv("a", "v")}})
	commit(l, id(7), ts(10))
	l.LogCoordCommitSync(id(9), ts(11), []uint16{0})
	if got := l.NextSeqFloor(); got != 9 {
		t.Fatalf("floor = %d, want 9", got)
	}
	// Release everything, compact (dropping the records), reopen: the
	// floor must survive through the recSeq record.
	l.MarkApplied([]uint64{id(7)})
	l.CoordAck(id(9), 0)
	l.Compact()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r := openLog(t, dir, 1)
	defer r.Close()
	if got := r.Committed(); len(got) != 0 {
		t.Fatalf("records not released: %+v", got)
	}
	if got := r.NextSeqFloor(); got != 9 {
		t.Fatalf("floor after compaction+restart = %d, want 9", got)
	}
}

func TestRedrivePendingAndCoordAbort(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, NumDCs: 1, SelfDC: 0, Fsync: "never", CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.LogCoordCommitSync(1, ts(10), []uint16{0, 1})
	l.LogCoordCommitSync(2, ts(20), []uint16{3})
	l.CoordAck(1, 0) // partition 1 still pending

	if got := l.RedrivePending(time.Hour); len(got) != 0 {
		t.Fatalf("nothing is an hour old yet: %+v", got)
	}
	red := l.RedrivePending(0)
	if len(red) != 2 {
		t.Fatalf("redrive = %+v, want both decisions", red)
	}
	for _, c := range red {
		switch c.TxID {
		case 1:
			if len(c.Cohorts) != 1 || c.Cohorts[0] != 1 {
				t.Fatalf("tx1 pending cohorts = %v, want [1]", c.Cohorts)
			}
		case 2:
			if len(c.Cohorts) != 1 || c.Cohorts[0] != 3 {
				t.Fatalf("tx2 pending cohorts = %v, want [3]", c.Cohorts)
			}
		}
	}

	if ct, ok := l.CoordDecision(2); !ok || ct != ts(20) {
		t.Fatalf("CoordDecision(2) = %v,%v", ct, ok)
	}
	l.CoordAbort(2)
	if _, ok := l.CoordDecision(2); ok {
		t.Fatal("aborted decision still visible")
	}
	if got := l.RedrivePending(0); len(got) != 1 || got[0].TxID != 1 {
		t.Fatalf("redrive after abort = %+v, want only tx1", got)
	}
}

func TestResyncPinClampsCursor(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, NumDCs: 2, SelfDC: 0, Fsync: "never", CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		l.LogPrepare(&PreparedTx{TxID: i, PT: ts(i * 10), Writes: []wire.KV{kv("k", "v")}})
		commit(l, i, ts(i*10))
	}
	// Unreplicated tail up to ct=30; pin it as a restarting server would.
	l.PinResync(1, ts(30))
	// An ack for NEWER traffic must not advance the cursor past the pin —
	// the tail may still be in flight behind it.
	l.AdvanceCursor(1, ts(100))
	if got := l.Cursor(1); got != ts(30) {
		t.Fatalf("pinned cursor = %v, want clamped to 30", got)
	}
	// An earlier resync batch's ack does not lift the pin.
	l.UnpinResync(1, ts(20))
	l.AdvanceCursor(1, ts(100))
	if got := l.Cursor(1); got != ts(30) {
		t.Fatalf("cursor after partial resync ack = %v, want 30", got)
	}
	// The tail's own ack lifts it; newer acks then advance freely.
	l.UnpinResync(1, ts(30))
	l.AdvanceCursor(1, ts(100))
	if got := l.Cursor(1); got != ts(100) {
		t.Fatalf("cursor after unpin = %v, want 100", got)
	}
	// The clamp must also have kept release at bay across the window.
	l.MarkApplied([]uint64{1, 2, 3})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r := openLog(t, dir, 2)
	defer r.Close()
	if got := r.Cursor(1); got != ts(100) {
		t.Fatalf("persisted cursor = %v, want 100", got)
	}
}

func TestReserveSeqsDurable(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, 1)
	l.ReserveSeqs(500)
	l.ReserveSeqs(400) // regression ignored
	if got := l.NextSeqFloor(); got != 500 {
		t.Fatalf("floor = %d, want 500", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r := openLog(t, dir, 1)
	defer r.Close()
	if got := r.NextSeqFloor(); got != 500 {
		t.Fatalf("floor after restart = %d, want 500", got)
	}
}

func TestAutoCompactionTriggers(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, NumDCs: 1, SelfDC: 0, Fsync: "never", CompactThreshold: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := uint64(1); i <= 50; i++ {
		l.LogPrepare(&PreparedTx{TxID: i, PT: ts(i), Writes: []wire.KV{kv("k", "v")}})
		commit(l, i, ts(i))
		l.MarkApplied([]uint64{i})
	}
	// 50 prepare+commit pairs uncompacted would be far larger; after
	// threshold-triggered rewrites only a handful of records remain.
	if size := recordBytes(l); size > 2048 {
		t.Fatalf("auto-compaction never ran: log is %d bytes", size)
	}
}

// TestGroupCommitWaiters pins the one group-commit mechanism: an urgent
// waiter pays (at most) one fsync and returns covered; a lazy waiter never
// causes an fsync and never runs before a sync that covers its record.
func TestGroupCommitWaiters(t *testing.T) {
	l := openLog(t, t.TempDir(), 1)
	defer l.Close()
	l.LogPrepare(&PreparedTx{TxID: 1, PT: ts(10), Writes: []wire.KV{kv("a", "v")}})
	l.Sync()
	base := l.syncs.Load()
	l.Sync() // covered: no second fsync
	if got := l.syncs.Load(); got != base {
		t.Fatalf("covered Sync paid an fsync: %d -> %d", base, got)
	}

	commit(l, 1, ts(20))
	fired := 0
	l.AfterSync(func() { fired++ })
	if fired != 0 || l.syncs.Load() != base {
		t.Fatalf("lazy waiter ran (%d) or synced (%d -> %d) before any covering sync", fired, base, l.syncs.Load())
	}
	// An urgent waiter for a LATER record covers the lazy one.
	l.LogCoordCommitSync(2, ts(30), []uint16{0})
	if fired != 1 || l.syncs.Load() != base+1 {
		t.Fatalf("after the covering sync: fired=%d syncs=%d, want 1 and %d", fired, l.syncs.Load(), base+1)
	}
	// Nothing unsynced: a lazy waiter runs at once, a duplicate outcome too.
	if commit(l, 1, ts(20)) {
		t.Fatal("duplicate LogCommit appended")
	}
	l.AfterSync(func() { fired++ })
	if fired != 2 || l.syncs.Load() != base+1 {
		t.Fatalf("covered lazy waiter: fired=%d syncs=%d", fired, l.syncs.Load())
	}
}

// TestLazyWaiterRunsAtOnceWithoutSyncOnAppend: under interval/never the
// acknowledgement was never tied to an fsync, so the waiter must not park.
func TestLazyWaiterRunsAtOnceWithoutSyncOnAppend(t *testing.T) {
	for _, policy := range []string{"interval", "never"} {
		l, err := Open(Options{Dir: t.TempDir(), NumDCs: 1, Fsync: policy})
		if err != nil {
			t.Fatal(err)
		}
		l.LogPrepare(&PreparedTx{TxID: 1, PT: ts(10), Writes: []wire.KV{kv("a", "v")}})
		commit(l, 1, ts(20))
		fired := false
		l.AfterSync(func() { fired = true })
		if !fired {
			t.Fatalf("%s: lazy waiter parked", policy)
		}
		l.Close()
	}
}

// TestCompactionCarriesOverConcurrentAppends runs compactions against
// appenders that never stop: every record must survive a reopen whether it
// was folded into a rewrite's snapshot or carried over behind it, urgent
// waiters must come back covered, and lazy waiters parked across a rewrite
// must all be released.
func TestCompactionCarriesOverConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, NumDCs: 1, Fsync: "always", CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 60
	var lazyFired atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := uint64(w*perWriter + i + 1)
				l.LogPrepare(&PreparedTx{TxID: id, PT: ts(id), Writes: []wire.KV{kv(fmt.Sprint("k", id), "v")}})
				l.LogCoordCommitSync(id, ts(id), []uint16{0})
				commit(l, id, ts(id))
				l.AfterSync(func() { lazyFired.Add(1) })
			}
		}(w)
	}
	stop := make(chan struct{})
	compacted := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				compacted <- n
				return
			default:
				l.Compact()
				n++
			}
		}
	}()
	wg.Wait()
	close(stop)
	if n := <-compacted; n == 0 {
		t.Fatal("no compaction overlapped the appends")
	}
	l.Sync()
	if got := lazyFired.Load(); got != writers*perWriter {
		t.Fatalf("%d of %d lazy waiters released", got, writers*perWriter)
	}
	if err := l.Healthy(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r := openLog(t, dir, 1)
	defer r.Close()
	if got := len(r.Committed()); got != writers*perWriter {
		t.Fatalf("recovered %d committed transactions, want %d", got, writers*perWriter)
	}
	if got := len(r.CoordPending()); got != writers*perWriter {
		t.Fatalf("recovered %d decisions, want %d", got, writers*perWriter)
	}
	if got := len(r.Prepared()); got != 0 {
		t.Fatalf("%d prepares lost their outcome across a rewrite", got)
	}
}

// TestLogPrepareNeverCompacts: a prepare runs on a connection's reader
// goroutine; only MarkApplied — the owner's release barrier — may rewrite.
func TestLogPrepareNeverCompacts(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, NumDCs: 1, Fsync: "never", CompactThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var before int64
	for i := uint64(1); i <= 20; i++ {
		l.LogPrepare(&PreparedTx{TxID: i, PT: ts(i), Writes: []wire.KV{kv("k", "v")}})
		l.LogAbort(i)
		size := recordBytes(l)
		if size <= before {
			t.Fatalf("log shrank under LogPrepare at record %d: %d -> %d bytes", i, before, size)
		}
		before = size
	}
	l.MarkApplied(nil)
	if after := recordBytes(l); after >= before {
		t.Fatalf("MarkApplied did not compact a log past its threshold: %d -> %d bytes", before, after)
	}
}

// TestOpenRejectsBadPolicy covers the fsync vocabulary: the txlog is the
// one log with a policy, so it is the one place a name is checked.
func TestOpenRejectsBadPolicy(t *testing.T) {
	if _, err := Open(Options{Dir: t.TempDir(), NumDCs: 1, Fsync: "sometimes"}); err == nil {
		t.Error("Open with unknown fsync policy should fail")
	}
	if got, err := ParseFsync(""); err != nil || got != FsyncInterval {
		t.Errorf("ParseFsync(\"\") = %q, %v; want the interval default", got, err)
	}
	for _, p := range []string{FsyncAlways, FsyncInterval, FsyncNever} {
		if got, err := ParseFsync(p); err != nil || got != p {
			t.Errorf("ParseFsync(%q) = %q, %v", p, got, err)
		}
	}
	if _, err := ParseFsync("alwayz"); err == nil {
		t.Error("ParseFsync accepted a misspelled policy")
	}
}

// TestIntervalPolicySyncsOnTimer: under the interval policy an appended
// record is synced by the timer, with no Sync call from the owner.
func TestIntervalPolicySyncsOnTimer(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), NumDCs: 1, Fsync: FsyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	base := l.syncs.Load()
	l.LogPrepare(&PreparedTx{TxID: 1, PT: ts(10), Writes: []wire.KV{kv("a", "v")}})
	for deadline := time.Now().Add(5 * time.Second); l.syncs.Load() == base; time.Sleep(fsyncPeriod) {
		if time.Now().After(deadline) {
			t.Fatal("no timer sync within 5 s of an append")
		}
	}
}
