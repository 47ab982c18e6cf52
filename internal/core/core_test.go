package core

import (
	"fmt"
	"testing"
	"time"

	"wren/internal/hlc"
	"wren/internal/replica/replicatest"
	"wren/internal/transport"
)

// testCluster wires up M DCs x N partitions of Wren servers over an
// in-memory network with fast protocol timers.
type testCluster struct {
	t       *testing.T
	net     *transport.Memory
	servers [][]*Server // [dc][partition]
	dcs     int
	parts   int
	clients []*Client
}

type clusterOpts struct {
	dcs, parts int
	interDC    time.Duration
	gcEvery    time.Duration
	skew       func(dc, partition int) time.Duration
}

func newTestCluster(t *testing.T, opts clusterOpts) *testCluster {
	t.Helper()
	if opts.interDC == 0 {
		opts.interDC = 5 * time.Millisecond
	}
	if opts.gcEvery == 0 {
		opts.gcEvery = -1 // disabled unless a test opts in
	}
	net := transport.NewMemory(transport.UniformLatency(100*time.Microsecond, opts.interDC), 0)
	tc := &testCluster{t: t, net: net, dcs: opts.dcs, parts: opts.parts}
	for dc := 0; dc < opts.dcs; dc++ {
		row := make([]*Server, opts.parts)
		for p := 0; p < opts.parts; p++ {
			var src hlc.Source = hlc.SystemSource{}
			if opts.skew != nil {
				src = hlc.OffsetSource{Base: hlc.SystemSource{}, Offset: opts.skew(dc, p)}
			}
			srv, err := NewServer(ServerConfig{
				DC: dc, Partition: p,
				NumDCs: opts.dcs, NumPartitions: opts.parts,
				Network:        net,
				ClockSource:    src,
				ApplyInterval:  time.Millisecond,
				GossipInterval: time.Millisecond,
				GCInterval:     opts.gcEvery,
			})
			if err != nil {
				t.Fatalf("NewServer: %v", err)
			}
			row[p] = srv
			srv.Start()
		}
		tc.servers = append(tc.servers, row)
	}
	t.Cleanup(tc.close)
	return tc
}

func (tc *testCluster) close() {
	for _, row := range tc.servers {
		for _, s := range row {
			s.Stop()
		}
	}
	tc.net.Close()
}

// holdStabilization keeps the DC's stable times — and every later commit's
// apply — where they are, by parking a never-decided prepare on each of its
// partitions (see replicatest.HoldApply). Freezing the ΔR/ΔG timers does
// not do that: commits install themselves and BiST rides their messages.
func (tc *testCluster) holdStabilization(dc int) {
	tc.t.Helper()
	for _, s := range tc.servers[dc] {
		replicatest.HoldApply(tc.t, tc.net, s.ID())
	}
}

func (tc *testCluster) client(dc int) *Client {
	tc.t.Helper()
	c, err := NewClient(ClientConfig{
		DC:                   dc,
		ClientIndex:          len(tc.clients),
		NumPartitions:        tc.parts,
		Network:              tc.net,
		CoordinatorPartition: 0,
		RequestTimeout:       5 * time.Second,
	})
	if err != nil {
		tc.t.Fatalf("NewClient: %v", err)
	}
	tc.clients = append(tc.clients, c)
	return c
}

// commitKV runs a single-transaction write of the given pairs.
func commitKV(t *testing.T, c *Client, kvs map[string]string) hlc.Timestamp {
	t.Helper()
	tx, err := c.Begin()
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	for k, v := range kvs {
		if err := tx.Write(k, []byte(v)); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	ct, err := tx.Commit()
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	return ct
}

// readKeys runs a read-only transaction over the keys and aborts it.
func readKeys(t *testing.T, c *Client, keys ...string) map[string][]byte {
	t.Helper()
	tx, err := c.Begin()
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	got, err := tx.Read(keys...)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatalf("Commit(read-only): %v", err)
	}
	return got
}

// eventually polls cond until it is true or the deadline passes.
func eventually(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("condition not reached within %v: %s", d, what)
}

func TestCommitAndReadBack(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{dcs: 1, parts: 2})
	c := tc.client(0)
	commitKV(t, c, map[string]string{"alpha": "1"})
	// The client cache serves the value immediately; after stabilization a
	// fresh client must see it through the snapshot as well.
	if got := readKeys(t, c, "alpha"); string(got["alpha"]) != "1" {
		t.Fatalf("read-your-writes failed: %q", got["alpha"])
	}
	other := tc.client(0)
	eventually(t, 2*time.Second, "other client sees committed write", func() bool {
		got := readKeys(t, other, "alpha")
		return string(got["alpha"]) == "1"
	})
}

func TestReadYourWritesBeforeStabilization(t *testing.T) {
	// An older undecided prepare on every partition keeps the LST from
	// advancing past the commit: the value must come from the client-side
	// cache (CANToR's second snapshot component).
	tc := newTestCluster(t, clusterOpts{dcs: 1, parts: 2})
	tc.holdStabilization(0)
	c := tc.client(0)
	commitKV(t, c, map[string]string{"k": "v1"})
	if c.CacheSize() == 0 {
		t.Fatal("committed write should be in the client cache")
	}
	got := readKeys(t, c, "k")
	if string(got["k"]) != "v1" {
		t.Fatalf("read-your-writes via cache failed: %q", got["k"])
	}
	// A different client must NOT see it (snapshot hasn't advanced).
	other := tc.client(0)
	if got := readKeys(t, other, "k"); got["k"] != nil {
		t.Fatalf("other client saw uninstalled write: %q", got["k"])
	}
}

func TestCachePrunedAfterStabilization(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{dcs: 1, parts: 2})
	c := tc.client(0)
	ct := commitKV(t, c, map[string]string{"k": "v1"})
	if c.CacheSize() != 1 {
		t.Fatalf("cache size = %d, want 1", c.CacheSize())
	}
	eventually(t, 2*time.Second, "LST covers the commit", func() bool {
		lst, _ := tc.servers[0][0].StableTimes()
		return lst >= ct
	})
	// The next Begin prunes the cache (Algorithm 1 line 6).
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _, _ = tx.Commit() }()
	if c.CacheSize() != 0 {
		t.Fatalf("cache not pruned: size = %d", c.CacheSize())
	}
}

func TestSnapshotInvariantRemoteBelowLocal(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{dcs: 2, parts: 2})
	c := tc.client(0)
	for i := 0; i < 20; i++ {
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		lt, rt := tx.Snapshot()
		if lt > 0 && rt >= lt {
			t.Fatalf("snapshot invariant violated: rt=%v >= lt=%v", rt, lt)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSnapshotMonotonicPerClient(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{dcs: 1, parts: 2})
	c := tc.client(0)
	var prevLT, prevRT hlc.Timestamp
	for i := 0; i < 30; i++ {
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		lt, rt := tx.Snapshot()
		if lt < prevLT || rt < prevRT {
			t.Fatalf("snapshot went backwards: (%v,%v) after (%v,%v)", lt, rt, prevLT, prevRT)
		}
		prevLT, prevRT = lt, rt
		if err := tx.Write(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAtomicMultiPartitionWrites(t *testing.T) {
	// Writer updates two keys on different partitions in each transaction;
	// readers must never observe them out of sync.
	tc := newTestCluster(t, clusterOpts{dcs: 1, parts: 4})
	writer := tc.client(0)
	reader := tc.client(0)

	// Find two keys on different partitions.
	kx, ky := keysOnDistinctPartitions(4)

	stop := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		defer close(writerDone)
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			val := fmt.Sprintf("%d", i)
			tx, err := writer.Begin()
			if err != nil {
				writerDone <- err
				return
			}
			_ = tx.Write(kx, []byte(val))
			_ = tx.Write(ky, []byte(val))
			if _, err := tx.Commit(); err != nil {
				writerDone <- err
				return
			}
		}
	}()

	deadline := time.Now().Add(1500 * time.Millisecond)
	reads := 0
	for time.Now().Before(deadline) {
		got := readKeys(t, reader, kx, ky)
		x, y := string(got[kx]), string(got[ky])
		if x != y {
			t.Fatalf("atomicity violated: %s=%q %s=%q", kx, x, ky, y)
		}
		reads++
	}
	close(stop)
	if err := <-writerDone; err != nil {
		t.Fatalf("writer: %v", err)
	}
	if reads < 10 {
		t.Fatalf("only %d reads completed; cluster too slow to be meaningful", reads)
	}
}

// keysOnDistinctPartitions returns two keys mapping to different partitions.
func keysOnDistinctPartitions(parts int) (string, string) {
	kx := "x0"
	for i := 0; ; i++ {
		ky := fmt.Sprintf("y%d", i)
		if partitionDiffers(kx, ky, parts) {
			return kx, ky
		}
	}
}

func partitionDiffers(a, b string, parts int) bool {
	return partitionOfForTest(a, parts) != partitionOfForTest(b, parts)
}

func TestReadsNeverBlock(t *testing.T) {
	// One partition's physical clock is 50ms in the future; in Cure this
	// forces reads on other partitions to wait out the skew. Wren must
	// answer instantly and report zero blocking.
	tc := newTestCluster(t, clusterOpts{
		dcs: 1, parts: 4,
		skew: func(dc, p int) time.Duration {
			if p == 1 {
				return 50 * time.Millisecond
			}
			return 0
		},
	})
	c := tc.client(0)
	commitKV(t, c, map[string]string{"a": "1", "b": "2", "c": "3", "d": "4"})
	for i := 0; i < 20; i++ {
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if _, err := tx.Read("a", "b", "c", "d"); err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		if tx.BlockedMicros != 0 {
			t.Fatalf("Wren read reported blocking: %dµs", tx.BlockedMicros)
		}
		if elapsed > 40*time.Millisecond {
			t.Fatalf("read took %v; nonblocking reads must not wait out clock skew", elapsed)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCausalityAcrossDCs(t *testing.T) {
	// Client in DC0 writes x=1 then y=1 in separate transactions (y causally
	// depends on x). A DC1 reader that sees y must also see x.
	tc := newTestCluster(t, clusterOpts{dcs: 2, parts: 2})
	w := tc.client(0)
	r := tc.client(1)

	commitKV(t, w, map[string]string{"causal-x": "1"})
	commitKV(t, w, map[string]string{"causal-y": "1"})

	eventually(t, 5*time.Second, "y visible in DC1", func() bool {
		got := readKeys(t, r, "causal-y", "causal-x")
		if got["causal-y"] == nil {
			return false
		}
		if got["causal-x"] == nil {
			t.Fatalf("causality violated: y visible without x")
		}
		return true
	})
}

func TestLWWConvergenceAcrossDCs(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{dcs: 3, parts: 2})
	// Concurrent conflicting writes to the same key from every DC.
	for dc := 0; dc < 3; dc++ {
		c := tc.client(dc)
		commitKV(t, c, map[string]string{"conflict": fmt.Sprintf("dc%d", dc)})
	}
	// All DCs must converge to the same winner on every replica.
	eventually(t, 5*time.Second, "replicas converge", func() bool {
		var want string
		for dc := 0; dc < 3; dc++ {
			v := tc.servers[dc][partitionOfForTest("conflict", 2)].Store().Latest("conflict")
			if v == nil {
				return false
			}
			if dc == 0 {
				want = string(v.Value)
			} else if string(v.Value) != want {
				return false
			}
		}
		return true
	})
}

func TestAvailabilityUnderInterDCPartition(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{dcs: 2, parts: 2})
	c0 := tc.client(0)

	// Let stabilization warm up, then cut the WAN link.
	time.Sleep(50 * time.Millisecond)
	tc.net.Cut(0, 1)
	tc.net.Cut(1, 0)

	// DC0 must keep serving transactions (availability).
	start := time.Now()
	commitKV(t, c0, map[string]string{"avail": "yes"})
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("commit during partition took %v", elapsed)
	}
	got := readKeys(t, c0, "avail")
	if string(got["avail"]) != "yes" {
		t.Fatal("local read failed during partition")
	}

	// RST must stall while partitioned (no remote progress).
	_, rstBefore := tc.servers[0][0].StableTimes()
	time.Sleep(100 * time.Millisecond)
	_, rstDuring := tc.servers[0][0].StableTimes()
	// Allow a small catch-up from messages sent before the cut.
	if rstDuring > rstBefore {
		delta := rstDuring.Physical() - rstBefore.Physical()
		if delta > (50 * time.Millisecond).Microseconds() {
			t.Fatalf("RST advanced %dµs during partition", delta)
		}
	}

	// Heal: the write must reach DC1 and RST must resume.
	tc.net.Heal(0, 1)
	tc.net.Heal(1, 0)
	r1 := tc.client(1)
	eventually(t, 5*time.Second, "DC1 sees write after heal", func() bool {
		got := readKeys(t, r1, "avail")
		return string(got["avail"]) == "yes"
	})
}

func TestGarbageCollectionPrunesOldVersions(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{dcs: 1, parts: 2, gcEvery: 20 * time.Millisecond})
	c := tc.client(0)
	key := "hot"
	for i := 0; i < 50; i++ {
		commitKV(t, c, map[string]string{key: fmt.Sprintf("v%d", i)})
	}
	srv := tc.servers[0][partitionOfForTest(key, 2)]
	eventually(t, 3*time.Second, "version chain pruned", func() bool {
		return srv.Store().VersionsOf(key) <= 3 && srv.Metrics().GCRemoved.Load() > 0
	})
	// The latest value must survive GC.
	got := readKeys(t, tc.client(0), key)
	eventuallyValue := string(got[key])
	if eventuallyValue == "" {
		t.Fatal("value lost after GC")
	}
}

func TestReadOnlyTransactionCommitsAtZero(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{dcs: 1, parts: 2})
	c := tc.client(0)
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Read("whatever"); err != nil {
		t.Fatal(err)
	}
	ct, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if ct != 0 {
		t.Fatalf("read-only commit timestamp = %v, want 0", ct)
	}
}

func TestRepeatableReads(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{dcs: 1, parts: 2})
	c := tc.client(0)
	commitKV(t, c, map[string]string{"rr": "v1"})
	other := tc.client(0)
	eventually(t, 2*time.Second, "value visible", func() bool {
		return string(readKeys(t, other, "rr")["rr"]) == "v1"
	})

	tx, err := other.Begin()
	if err != nil {
		t.Fatal(err)
	}
	first, err := tx.Read("rr")
	if err != nil {
		t.Fatal(err)
	}
	// Another client overwrites between the two reads.
	commitKV(t, c, map[string]string{"rr": "v2"})
	time.Sleep(50 * time.Millisecond)
	second, err := tx.Read("rr")
	if err != nil {
		t.Fatal(err)
	}
	if string(first["rr"]) != string(second["rr"]) {
		t.Fatalf("repeatable read violated: %q then %q", first["rr"], second["rr"])
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteSetReadBack(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{dcs: 1, parts: 2})
	c := tc.client(0)
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write("w", []byte("uncommitted")); err != nil {
		t.Fatal(err)
	}
	got, err := tx.Read("w")
	if err != nil {
		t.Fatal(err)
	}
	if string(got["w"]) != "uncommitted" {
		t.Fatalf("transaction must read its own buffered write, got %q", got["w"])
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestMissingKeyAbsent(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{dcs: 1, parts: 2})
	c := tc.client(0)
	got := readKeys(t, c, "never-written")
	if _, ok := got["never-written"]; ok {
		t.Fatal("missing key should be absent from result")
	}
}

func TestTxLifecycleErrors(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{dcs: 1, parts: 2})
	c := tc.client(0)
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Begin(); err != ErrTxOpen {
		t.Fatalf("second Begin = %v, want ErrTxOpen", err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != ErrTxDone {
		t.Fatalf("double Commit = %v, want ErrTxDone", err)
	}
	if _, err := tx.Read("k"); err != ErrTxDone {
		t.Fatalf("Read after Commit = %v, want ErrTxDone", err)
	}
	if err := tx.Write("k", nil); err != ErrTxDone {
		t.Fatalf("Write after Commit = %v, want ErrTxDone", err)
	}

	tx2, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	if err := tx2.Abort(); err != ErrTxDone {
		t.Fatalf("double Abort = %v, want ErrTxDone", err)
	}
	// After abort a new transaction can start.
	tx3, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}

	c.Close()
	if _, err := c.Begin(); err != ErrClosed {
		t.Fatalf("Begin after Close = %v, want ErrClosed", err)
	}
}

func TestConfigValidation(t *testing.T) {
	net := transport.NewMemory(nil, 0)
	defer net.Close()
	bad := []ServerConfig{
		{NumDCs: 0, NumPartitions: 1, Network: net},
		{NumDCs: 1, NumPartitions: 0, Network: net},
		{DC: 5, NumDCs: 2, NumPartitions: 1, Network: net},
		{Partition: 9, NumDCs: 1, NumPartitions: 2, Network: net},
		{NumDCs: 1, NumPartitions: 1, Network: nil},
		{NumDCs: 1, NumPartitions: 1, Network: net, UseHLC: true}, // Cure's switch
	}
	for i, cfg := range bad {
		if _, err := NewServer(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	if _, err := NewClient(ClientConfig{Network: nil, NumPartitions: 1}); err == nil {
		t.Error("client without network should be rejected")
	}
	if _, err := NewClient(ClientConfig{Network: net, NumPartitions: 0}); err == nil {
		t.Error("client without partitions should be rejected")
	}
}

func TestVersionVectorAndStableTimesMonotone(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{dcs: 2, parts: 2})
	c := tc.client(0)
	srv := tc.servers[0][0]
	var prevLST, prevRST, prevVC hlc.Timestamp
	for i := 0; i < 30; i++ {
		commitKV(t, c, map[string]string{fmt.Sprintf("m%d", i): "v"})
		lst, rst := srv.StableTimes()
		vc := srv.LocalVersionClock()
		if lst < prevLST || rst < prevRST || vc < prevVC {
			t.Fatalf("monotonicity violated: lst %v->%v rst %v->%v vc %v->%v",
				prevLST, lst, prevRST, rst, prevVC, vc)
		}
		prevLST, prevRST, prevVC = lst, rst, vc
	}
	vv := srv.VersionVector()
	if len(vv) != 2 {
		t.Fatalf("version vector has %d entries, want 2", len(vv))
	}
}
