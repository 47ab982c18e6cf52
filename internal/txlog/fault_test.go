package txlog

import (
	"bytes"
	"errors"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"wren/internal/store/fsutil/crashfs"
	"wren/internal/wire"
)

// openCrash opens a log over a crashfs on a fresh directory.
func openCrash(t *testing.T) (*Log, *crashfs.FS, string) {
	t.Helper()
	dir := t.TempDir()
	c, err := crashfs.New(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	l, err := open(Options{Dir: dir, NumDCs: 1, Fsync: FsyncAlways}, c)
	if err != nil {
		t.Fatal(err)
	}
	return l, c, dir
}

func prepareN(l *Log, ids ...uint64) {
	for _, id := range ids {
		l.LogPrepare(&PreparedTx{TxID: id, PT: ts(id), Writes: []wire.KV{kv("k", "v")}})
	}
}

func preparedIDs(l *Log) []uint64 {
	var ids []uint64
	for _, p := range l.Prepared() {
		ids = append(ids, p.TxID)
	}
	slices.Sort(ids)
	return ids
}

// TestRepairWithFailedProbeSyncStaysDegraded: a Repair whose compaction
// succeeds but whose probe sync fails must not clear the sticky error.
func TestRepairWithFailedProbeSyncStaysDegraded(t *testing.T) {
	degradedRepair := func(failAt int) (*Log, *crashfs.FS, bool) {
		l, c, _ := openCrash(t)
		prepareN(l, 1, 2)
		l.Sync()
		l.InjectFailure(errors.New("injected"))
		c.FailAt(failAt)
		return l, c, l.Repair()
	}
	// A clean repair ends with the probe's append and then its sync.
	l, c, ok := degradedRepair(0)
	probeSync := c.Ops()
	l.Close()
	if !ok {
		t.Fatalf("repair without a fault failed: %v", l.Healthy())
	}

	l, c, ok = degradedRepair(probeSync)
	defer l.Close()
	if ok || l.Healthy() == nil {
		t.Fatalf("repair with its probe sync failing reported %v, Healthy %v; want false and an error", ok, l.Healthy())
	}
	if c.Ops() != probeSync {
		t.Fatalf("the failing repair did %d operations, the clean one %d", c.Ops(), probeSync)
	}
	// The probe's write landed; only its sync failed.
	if f := frames(t, l); !strings.HasSuffix(f[len(f)-1], "0702") {
		t.Fatalf("last record %s, want the probe's sequence floor (kind 7, floor 2)", f[len(f)-1])
	}
}

// TestRepairUnfreezesLog: an append whose write and rollback truncate both
// fail freezes the log; Repair's compaction rewrites it from memory and
// unfreezes it, so a reopen replays every record, those appended before
// the freeze, during it and after the repair.
func TestRepairUnfreezesLog(t *testing.T) {
	l, c, dir := openCrash(t)
	prepareN(l, 1, 2, 3)
	l.Sync()
	n := c.Ops()
	c.FailAt(n+1, n+2) // the next append's write, then its truncate
	prepareN(l, 4)
	if l.Healthy() == nil {
		t.Fatal("a failed append with a failed rollback left the log healthy")
	}
	frozen := recordBytes(l)
	prepareN(l, 5)
	if got := recordBytes(l); got != frozen {
		t.Fatalf("a frozen log appended: %d -> %d record bytes", frozen, got)
	}
	if !l.Repair() {
		t.Fatalf("repair failed: %v", l.Healthy())
	}
	prepareN(l, 6)
	l.Sync()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r := openLog(t, dir, 1)
	defer r.Close()
	if got, want := preparedIDs(r), []uint64{1, 2, 3, 4, 5, 6}; !slices.Equal(got, want) {
		t.Fatalf("reopen after freeze and repair replayed prepares %v, want %v", got, want)
	}
}

// TestStragglersAfterCloseTouchNothing: under the interval policy, calls
// that arrive after Close — acknowledgements, cursor moves, waiters, a
// compaction — and any timer still pending leave the file and Healthy as
// Close left them.
func TestStragglersAfterCloseTouchNothing(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, NumDCs: 2, Fsync: FsyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	prepareN(l, 1)
	l.LogCoordCommitSync(2, ts(20), []uint16{0})
	p := l.Prepared()[0]
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := l.path()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	l.LogCommit(p.Committed(ts(30)))
	l.CoordAck(2, 0)
	l.AdvanceCursor(1, ts(40))
	ran := false
	l.AfterSync(func() { ran = true })
	l.Compact()
	time.Sleep(2 * fsyncPeriod)

	if err := l.Healthy(); err != nil {
		t.Fatalf("a straggler after Close degraded the log: %v", err)
	}
	if ran {
		t.Fatal("an AfterSync callback ran after Close")
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("the file changed after Close (err %v)", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
