package txlog

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"wren/internal/store/fsutil/crashfs"
	"wren/internal/wire"
)

// fingerprint renders everything recovery rebuilds from the file, in a
// canonical order: two logs with the same fingerprint replayed the same
// records.
func fingerprint(l *Log) string {
	var b strings.Builder
	prepared := l.Prepared()
	sort.Slice(prepared, func(i, j int) bool { return prepared[i].TxID < prepared[j].TxID })
	for _, p := range prepared {
		fmt.Fprintf(&b, "P%d@%d", p.TxID, p.PT)
		for _, w := range p.Writes {
			fmt.Fprintf(&b, ":%s=%d/%x", w.Key, len(w.Value), w.Value[:1])
		}
		b.WriteByte(' ')
	}
	for _, c := range l.Committed() {
		fmt.Fprintf(&b, "C%d@%d/%d ", c.TxID, c.CT, len(c.Writes))
	}
	coord := l.CoordPending()
	sort.Slice(coord, func(i, j int) bool { return coord[i].TxID < coord[j].TxID })
	for _, c := range coord {
		fmt.Fprintf(&b, "D%d@%d%v ", c.TxID, c.CT, c.Cohorts)
	}
	fmt.Fprintf(&b, "cursor=%d seq=%d", l.Cursor(1), l.NextSeqFloor())
	return b.String()
}

// assertZeroTail fails unless the file is its records followed by nothing
// but zeros.
func assertZeroTail(t *testing.T, l *Log, context string) {
	t.Helper()
	buf, err := os.ReadFile(l.path())
	if err != nil {
		t.Fatal(err)
	}
	size := recordBytes(l)
	if int64(len(buf)) < size {
		t.Fatalf("%s: file is %d bytes, shorter than its %d bytes of records", context, len(buf), size)
	}
	if tail := buf[size:]; !bytes.Equal(tail, make([]byte, len(tail))) {
		t.Fatalf("%s: %d bytes behind the last record (offset %d) are not zeros",
			context, len(bytes.TrimRight(tail, "\x00")), size)
	}
}

// TestStaleRecordBehindTornOneIsNotReplayed builds the image A B ⟨torn C⟩
// D — D's page reached the disk, C's did not — and appends a C' of C's
// exact length in the next life. Without clearing the tail before that
// append, D frames and checksums clean right behind C' and the life after
// replays a record no sync ever covered.
func TestStaleRecordBehindTornOneIsNotReplayed(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, 1)
	prepare := func(l *Log, id uint64) int64 {
		l.LogPrepare(&PreparedTx{TxID: id, PT: ts(10), Writes: []wire.KV{kv("key", strings.Repeat("v", 300))}})
		return recordBytes(l)
	}
	prepare(l, 1)         // A
	offC := prepare(l, 2) // B ends where C starts
	offD := prepare(l, 3) // C
	prepare(l, 4)         // D
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, logName)
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Tear C: its payload's middle never made it, its header and D did.
	if _, err := f.WriteAt(make([]byte, 64), offC+100); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := openLog(t, dir, 1)
	if got := fingerprint(r); strings.Contains(got, "P3@") || strings.Contains(got, "P4@") || !strings.Contains(got, "P2@") {
		t.Fatalf("recovery behind a torn record: %s, want prepares 1 and 2", got)
	}
	if end := prepare(r, 5); end != offD { // C': same length, so it ends where D starts
		t.Fatalf("C' ends at %d, want %d (the offset of D)", end, offD)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2 := openLog(t, dir, 1)
	defer r2.Close()
	got := fingerprint(r2)
	if strings.Contains(got, "P4@") {
		t.Fatalf("a stale record was replayed behind the new one: %s", got)
	}
	if !strings.Contains(got, "P5@") || strings.Contains(got, "P3@") {
		t.Fatalf("second recovery: %s, want prepares 1, 2 and 5", got)
	}
	assertZeroTail(t, r2, "after the second recovery")
	if st, err := os.Stat(path); err != nil || st.Size() <= offD {
		t.Fatalf("file is %d bytes (err %v): no zero-filled region behind the records ending at %d", st.Size(), err, offD)
	}
}

// TestClearedTailSurvivesPowerCut is the power-loss side of the test
// above: recovery's zeros over a torn tail MUST be stable before the
// life's first append. Life 1 leaves A B ⟨torn C⟩ D, each record over a
// page; life 2 recovers through crashfs, appends a C' of C's length and
// loses power before any sync. Whatever pages survive, D must not come
// back behind C'.
func TestClearedTailSurvivesPowerCut(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, 1)
	prepare := func(l *Log, id uint64) int64 {
		l.LogPrepare(&PreparedTx{TxID: id, PT: ts(10), Writes: []wire.KV{kv("key", strings.Repeat("v", 6000))}})
		return recordBytes(l)
	}
	prepare(l, 1)
	offC := prepare(l, 2)
	prepare(l, 3)
	prepare(l, 4)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 64), offC+100); err != nil {
		t.Fatal(err)
	}
	f.Close()

	torn, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 32; seed++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), torn, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := crashfs.New(dir, seed)
		if err != nil {
			t.Fatal(err)
		}
		r, err := open(Options{Dir: dir, NumDCs: 1, Fsync: "always"}, c)
		if err != nil {
			t.Fatal(err)
		}
		prepare(r, 5) // C', unsynced
		img := t.TempDir()
		if err := c.Image(c.Ops(), img); err != nil {
			t.Fatal(err)
		}
		r.Close()
		r = openLog(t, img, 1)
		if got := fingerprint(r); strings.Contains(got, "P3@") || strings.Contains(got, "P4@") {
			t.Fatalf("seed %d: a power cut before the first sync replayed a record behind the cleared tail: %s", seed, got)
		}
		r.Close()
	}
}

// TestPageSubsetCrash runs a seeded script of prepares, commits, aborts,
// decisions, cursor moves, syncs and compactions, and at random points
// cuts the power (crashfs.Image): any subset of the 4 KiB pages written
// since the last completed sync holds what it held at that sync, and a
// file that grew since may not have. Reopening the image must replay
// exactly a prefix of the appended records that includes everything the
// sync covered, leave nothing but zeros behind it, accept appends, and
// survive a second reopen.
func TestPageSubsetCrash(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		pageSubsetCrash(t, seed)
	}
}

// stepper drives logs through a seeded random history of prepares,
// commits, aborts, decisions and their cohort acks, cursor moves, applied
// marks, syncs and compactions. Every step goes to each log it is given,
// so logs fed by one stepper live the same history in lockstep.
type stepper struct {
	rng                          *rand.Rand
	prepared, committed, decided []uint64
	nextID, clock                uint64
}

func newStepper(rng *rand.Rand) *stepper { return &stepper{rng: rng, clock: 100} }

// pick removes and returns a random id of ids.
func (s *stepper) pick(ids *[]uint64) (uint64, bool) {
	if len(*ids) == 0 {
		return 0, false
	}
	i := s.rng.Intn(len(*ids))
	id := (*ids)[i]
	*ids = append((*ids)[:i], (*ids)[i+1:]...)
	return id, true
}

// step runs one random operation on every log and reports whether it was
// a compaction, which leaves a file that is synced from end to end.
func (s *stepper) step(logs ...*Log) (compacted bool) {
	s.clock++
	switch op := s.rng.Intn(12); {
	case op < 4:
		s.nextID++
		writes := make([]wire.KV, 1+s.rng.Intn(3))
		for i := range writes {
			v := bytes.Repeat([]byte{byte(1 + s.rng.Intn(255))}, 1+s.rng.Intn(3000))
			writes[i] = wire.KV{Key: fmt.Sprint("k", s.rng.Intn(50)), Value: v}
		}
		for _, l := range logs {
			l.LogPrepare(&PreparedTx{TxID: s.nextID, PT: ts(s.clock), RST: ts(s.clock - 50), Writes: writes})
		}
		s.prepared = append(s.prepared, s.nextID)
	case op < 6:
		if id, ok := s.pick(&s.prepared); ok {
			for _, l := range logs {
				commit(l, id, ts(s.clock))
			}
			s.committed = append(s.committed, id)
		}
	case op == 6:
		if id, ok := s.pick(&s.prepared); ok {
			for _, l := range logs {
				l.LogAbort(id)
			}
		}
	case op == 7:
		s.nextID++
		for _, l := range logs {
			l.LogCoordCommitSync(s.nextID, ts(s.clock), []uint16{0, 1})
		}
		s.decided = append(s.decided, s.nextID)
	case op == 8:
		if id, ok := s.pick(&s.decided); ok {
			for _, l := range logs {
				l.CoordAck(id, 0)
				l.CoordAck(id, 1)
			}
		}
	case op == 9:
		upTo := ts(s.clock - uint64(s.rng.Intn(40)))
		id, ok := s.pick(&s.committed)
		for _, l := range logs {
			l.AdvanceCursor(1, upTo)
			if ok {
				l.MarkApplied([]uint64{id})
			}
		}
	case op == 10:
		for _, l := range logs {
			l.Sync()
		}
	default:
		if s.rng.Intn(4) == 0 {
			for _, l := range logs {
				l.Compact()
			}
			return true
		}
	}
	return false
}

func pageSubsetCrash(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	// openDir opens the log in dir through a crashfs over it: the log's
	// own for the history, a fresh one (which pays no real fsync) for an
	// image.
	openDir := func(dir string) (*Log, *crashfs.FS) {
		c, err := crashfs.New(dir, seed)
		if err != nil {
			t.Fatal(err)
		}
		l, err := open(Options{Dir: dir, NumDCs: 2, Fsync: "always", CompactThreshold: -1}, c)
		if err != nil {
			t.Fatalf("seed %d: Open: %v", seed, err)
		}
		return l, c
	}
	l, c := openDir(t.TempDir())
	defer func() { l.Close() }()
	s := newStepper(rng)

	// states are the fingerprints after the last completed sync and after
	// each step since.
	states := []string{fingerprint(l)}
	for n := 0; n < 100; n++ {
		syncs := l.syncs.Load()
		if s.step(l) || l.syncs.Load() != syncs {
			states = states[:0]
		}
		states = append(states, fingerprint(l))
		if rng.Intn(4) != 0 {
			continue
		}

		crashDir := t.TempDir()
		if err := c.Image(c.Ops(), crashDir); err != nil {
			t.Fatal(err)
		}
		context := fmt.Sprintf("seed %d step %d (power cut after operation %d)", seed, n, c.Ops())
		r, _ := openDir(crashDir)
		got, at := fingerprint(r), -1
		for i, state := range states {
			if state == got {
				at = i
			}
		}
		if at < 0 {
			t.Fatalf("%s: recovered\n  %s\nwhich is no prefix of what was appended since the last sync:\n  %s",
				context, got, strings.Join(states, "\n  "))
		}
		assertZeroTail(t, r, context)
		r.LogPrepare(&PreparedTx{TxID: 1 << 30, PT: ts(1), Writes: []wire.KV{kv("after", "crash")}})
		r.Sync()
		want := fingerprint(r)
		if err := r.Close(); err != nil {
			t.Fatalf("%s: Close after recovery: %v", context, err)
		}
		r, _ = openDir(crashDir)
		if got := fingerprint(r); got != want {
			t.Fatalf("%s: second reopen\n  %s\nwant\n  %s", context, got, want)
		}
		assertZeroTail(t, r, context+", second reopen")
		r.Close()
	}
}

// TestFilelessLogMatchesFileLog feeds a log with a file and a log without
// one the same seeded histories, and holds them to the same lifecycle
// after every step: the state recovery would rebuild, and the tail a
// resync would re-send. The file-less log never syncs, runs an AfterSync
// callback before AfterSync returns, ignores an Fsync it could not parse,
// writes nothing to disk and closes clean; an injected failure is
// repaired.
func TestFilelessLogMatchesFileLog(t *testing.T) {
	t.Chdir(t.TempDir()) // where a stray relative path would land
	tailOf := func(l *Log) string {
		var b strings.Builder
		for _, c := range l.UnreplicatedTail(1) {
			fmt.Fprintf(&b, "%d@%d ", c.TxID, c.CT)
		}
		return b.String()
	}
	for seed := int64(1); seed <= 10; seed++ {
		file, err := Open(Options{Dir: t.TempDir(), NumDCs: 2, Fsync: "always", CompactThreshold: 16})
		if err != nil {
			t.Fatal(err)
		}
		mem, err := Open(Options{NumDCs: 2, Fsync: "sometimes", CompactThreshold: 16})
		if err != nil {
			t.Fatalf("seed %d: Open without a file: %v", seed, err)
		}
		s := newStepper(rand.New(rand.NewSource(seed)))
		for n := 0; n < 100; n++ {
			s.step(file, mem)
			context := fmt.Sprintf("seed %d step %d", seed, n)
			if got, want := fingerprint(mem), fingerprint(file); got != want {
				t.Fatalf("%s: without a file\n  %s\nwith one\n  %s", context, got, want)
			}
			if got, want := tailOf(mem), tailOf(file); got != want {
				t.Fatalf("%s: unreplicated tail without a file %q, with one %q", context, got, want)
			}
			ran := false
			mem.AfterSync(func() { ran = true })
			if !ran {
				t.Fatalf("%s: an AfterSync callback waited on a log without a file", context)
			}
			if n := mem.syncs.Load(); n != 0 {
				t.Fatalf("%s: a log without a file counted %d syncs", context, n)
			}
		}
		mem.InjectFailure(fmt.Errorf("injected"))
		if mem.Healthy() == nil || !mem.Repair() || mem.Healthy() != nil {
			t.Fatalf("seed %d: injected failure not repaired: %v", seed, mem.Healthy())
		}
		if err := mem.Close(); err != nil {
			t.Fatalf("seed %d: Close without a file: %v", seed, err)
		}
		if err := file.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if ents, err := os.ReadDir("."); err != nil || len(ents) != 0 {
		t.Fatalf("the working directory holds %d entries (err %v), want none", len(ents), err)
	}
}

// TestSyncsWithoutGrowth is the change as a count: a sync whose records
// landed in space the file already owns leaves the file's size alone, so
// of 1 000 prepare+sync rounds at most one in 32 may move it, and the
// zero-filled region never runs more than two chunks ahead of the records.
func TestSyncsWithoutGrowth(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, NumDCs: 1, Fsync: "always", CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	path := filepath.Join(dir, logName)
	writes := []wire.KV{kv("a", strings.Repeat("x", 1024)), kv("b", strings.Repeat("y", 1024))}
	const rounds = 1000
	var last int64
	grew := 0
	for i := uint64(1); i <= rounds; i++ {
		l.LogPrepare(&PreparedTx{TxID: i, PT: ts(i), Writes: writes})
		l.Sync()
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != last {
			grew++
		}
		last = st.Size()
		if ahead := st.Size() - recordBytes(l); ahead < 0 || ahead > 2*chunk {
			t.Fatalf("round %d: the file is %d bytes longer than its records, want 0..%d", i, ahead, 2*chunk)
		}
	}
	if got := l.syncs.Load(); got != rounds {
		t.Fatalf("%d syncs for %d rounds: the count must not change, only what each costs", got, rounds)
	}
	t.Logf("file size moved between %d of %d consecutive syncs", grew, rounds)
	if grew > rounds/32 {
		t.Fatalf("the file's size moved between %d of %d consecutive syncs, want <= %d", grew, rounds, rounds/32)
	}
	if err := l.Healthy(); err != nil {
		t.Fatal(err)
	}
}
