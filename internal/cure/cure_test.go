package cure

import (
	"fmt"
	"testing"
	"time"

	"wren/internal/hlc"
	"wren/internal/sharding"
	"wren/internal/transport"
)

type testCluster struct {
	t       *testing.T
	net     *transport.Memory
	servers [][]*Server
	dcs     int
	parts   int
	nextCli int
}

type clusterOpts struct {
	dcs, parts  int
	useHLC      bool
	interDC     time.Duration
	gossipEvery time.Duration
	applyEvery  time.Duration
	gcEvery     time.Duration
	skew        func(dc, partition int) time.Duration
}

func newTestCluster(t *testing.T, opts clusterOpts) *testCluster {
	t.Helper()
	if opts.interDC == 0 {
		opts.interDC = 5 * time.Millisecond
	}
	if opts.gossipEvery == 0 {
		opts.gossipEvery = time.Millisecond
	}
	if opts.applyEvery == 0 {
		opts.applyEvery = time.Millisecond
	}
	if opts.gcEvery == 0 {
		opts.gcEvery = -1
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
				UseHLC:         opts.useHLC,
				ApplyInterval:  opts.applyEvery,
				GossipInterval: opts.gossipEvery,
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

func (tc *testCluster) client(dc int) *Client {
	tc.t.Helper()
	tc.nextCli++
	c, err := NewClient(ClientConfig{
		DC:                   dc,
		ClientIndex:          tc.nextCli,
		NumDCs:               tc.dcs,
		NumPartitions:        tc.parts,
		Network:              tc.net,
		CoordinatorPartition: 0,
		RequestTimeout:       5 * time.Second,
	})
	if err != nil {
		tc.t.Fatalf("NewClient: %v", err)
	}
	return c
}

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

func TestVectorHelpers(t *testing.T) {
	a := []hlc.Timestamp{1, 5, 3}
	b := []hlc.Timestamp{2, 4, 3}
	cp := copyVec(a)
	cp[0] = 99
	if a[0] == 99 {
		t.Error("copyVec must copy")
	}
	maxInto(a, b)
	want := []hlc.Timestamp{2, 5, 3}
	for i := range want {
		if a[i] != want[i] {
			t.Errorf("maxInto[%d] = %v, want %v", i, a[i], want[i])
		}
	}
	if !leqAll([]hlc.Timestamp{1, 2}, []hlc.Timestamp{1, 3}) {
		t.Error("leqAll should hold")
	}
	if leqAll([]hlc.Timestamp{2, 2}, []hlc.Timestamp{1, 3}) {
		t.Error("leqAll should fail")
	}
	if leqAll([]hlc.Timestamp{1}, []hlc.Timestamp{1, 2}) {
		t.Error("leqAll must reject length mismatch")
	}
}

func TestCureCommitAndReadBack(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{dcs: 1, parts: 2, useHLC: false})
	c := tc.client(0)
	commitKV(t, c, map[string]string{"alpha": "1"})
	// Cure has no client cache: the read blocks until the snapshot (which
	// includes the write) installs, then returns it.
	got := readKeys(t, c, "alpha")
	if string(got["alpha"]) != "1" {
		t.Fatalf("read-your-writes failed: %q", got["alpha"])
	}
	other := tc.client(0)
	eventually(t, 2*time.Second, "other client sees write", func() bool {
		return string(readKeys(t, other, "alpha")["alpha"]) == "1"
	})
}

func TestHCureCommitAndReadBack(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{dcs: 1, parts: 2, useHLC: true})
	c := tc.client(0)
	commitKV(t, c, map[string]string{"beta": "2"})
	got := readKeys(t, c, "beta")
	if string(got["beta"]) != "2" {
		t.Fatalf("read-your-writes failed: %q", got["beta"])
	}
}

func TestCureReadsBlockOnClockSkew(t *testing.T) {
	// Partition 0 (the coordinator) runs 20ms ahead. A snapshot started
	// there carries a local entry in partition 1's future, so reads on
	// partition 1 must block ~20ms in Cure.
	const skew = 20 * time.Millisecond
	tc := newTestCluster(t, clusterOpts{
		dcs: 1, parts: 2, useHLC: false,
		skew: func(dc, p int) time.Duration {
			if p == 0 {
				return skew
			}
			return 0
		},
	})
	c := tc.client(0)
	// Write a key on partition 1 so the read has something to fetch there.
	key := keyOnPartition(t, 1, 2)
	commitKV(t, c, map[string]string{key: "v"})

	var sawBlocking bool
	for i := 0; i < 10; i++ {
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Read(key); err != nil {
			t.Fatal(err)
		}
		if tx.BlockedMicros > int64(skew.Microseconds())/2 {
			sawBlocking = true
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if !sawBlocking {
		t.Fatal("Cure reads should block when the coordinator clock is ahead")
	}
	srv := tc.servers[0][1]
	if srv.Obs().Value("read.blocked") == 0 {
		t.Fatal("server should have recorded blocked reads")
	}
}

func TestHCureAvoidsClockSkewBlocking(t *testing.T) {
	// Same skewed topology, but H-Cure: the HLC jumps on message receipt,
	// so blocking should be roughly bounded by the apply interval rather
	// than the 20ms skew.
	const skew = 20 * time.Millisecond
	tc := newTestCluster(t, clusterOpts{
		dcs: 1, parts: 2, useHLC: true,
		skew: func(dc, p int) time.Duration {
			if p == 0 {
				return skew
			}
			return 0
		},
	})
	c := tc.client(0)
	key := keyOnPartition(t, 1, 2)
	commitKV(t, c, map[string]string{key: "v"})

	var maxBlocked int64
	for i := 0; i < 10; i++ {
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Read(key); err != nil {
			t.Fatal(err)
		}
		if tx.BlockedMicros > maxBlocked {
			maxBlocked = tx.BlockedMicros
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// H-Cure can still block on pending transactions, but never the full
	// clock skew.
	if maxBlocked > int64(skew.Microseconds()) {
		t.Fatalf("H-Cure blocked %dµs, should be well below the %v skew", maxBlocked, skew)
	}
}

func TestCureAtomicMultiPartitionWrites(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{dcs: 1, parts: 4, useHLC: true})
	writer := tc.client(0)
	reader := tc.client(0)
	kx := keyOnPartition(t, 0, 4)
	ky := keyOnPartition(t, 2, 4)

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

	deadline := time.Now().Add(1200 * time.Millisecond)
	for time.Now().Before(deadline) {
		got := readKeys(t, reader, kx, ky)
		x, y := string(got[kx]), string(got[ky])
		if x != y {
			t.Fatalf("atomicity violated: %q vs %q", x, y)
		}
	}
	close(stop)
	if err := <-writerDone; err != nil {
		t.Fatalf("writer: %v", err)
	}
}

func TestCureCausalityAcrossDCs(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{dcs: 2, parts: 2, useHLC: true})
	w := tc.client(0)
	r := tc.client(1)
	commitKV(t, w, map[string]string{"cx": "1"})
	commitKV(t, w, map[string]string{"cy": "1"})
	eventually(t, 5*time.Second, "y visible in DC1 implies x visible", func() bool {
		got := readKeys(t, r, "cy", "cx")
		if got["cy"] == nil {
			return false
		}
		if got["cx"] == nil {
			t.Fatal("causality violated: cy visible without cx")
		}
		return true
	})
}

func TestCureLWWConvergence(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{dcs: 3, parts: 2, useHLC: true})
	for dc := 0; dc < 3; dc++ {
		commitKV(t, tc.client(dc), map[string]string{"conflict": fmt.Sprintf("dc%d", dc)})
	}
	p := sharding.PartitionOf("conflict", 2)
	eventually(t, 5*time.Second, "replicas converge", func() bool {
		var want string
		for dc := 0; dc < 3; dc++ {
			v := tc.servers[dc][p].Store().Latest("conflict")
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

func TestCureClientDependencyVectorGrows(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{dcs: 2, parts: 2, useHLC: true})
	c := tc.client(0)
	before := c.DependencyVector()
	commitKV(t, c, map[string]string{"dep": "v"})
	after := c.DependencyVector()
	if !(after[0] > before[0]) {
		t.Fatalf("local DV entry should grow after commit: %v -> %v", before, after)
	}
}

func TestCureTxLifecycleErrors(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{dcs: 1, parts: 2, useHLC: true})
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
	tx2, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Begin(); err != ErrClosed {
		t.Fatalf("Begin after Close = %v, want ErrClosed", err)
	}
}

func TestCureConfigValidation(t *testing.T) {
	net := transport.NewMemory(nil, 0)
	defer net.Close()
	bad := []ServerConfig{
		{NumDCs: 0, NumPartitions: 1, Network: net},
		{NumDCs: 1, NumPartitions: 0, Network: net},
		{DC: 5, NumDCs: 2, NumPartitions: 1, Network: net},
		{NumDCs: 1, NumPartitions: 1, Network: nil},
	}
	for i, cfg := range bad {
		if _, err := NewServer(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	if _, err := NewClient(ClientConfig{Network: net, NumDCs: 0, NumPartitions: 1}); err == nil {
		t.Error("client with zero DCs should be rejected")
	}
}

func TestCureGC(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{dcs: 1, parts: 2, useHLC: true, gcEvery: 20 * time.Millisecond})
	c := tc.client(0)
	for i := 0; i < 50; i++ {
		commitKV(t, c, map[string]string{"hot": fmt.Sprintf("v%d", i)})
	}
	srv := tc.servers[0][sharding.PartitionOf("hot", 2)]
	eventually(t, 3*time.Second, "versions pruned", func() bool {
		return srv.Store().VersionsOf("hot") <= 3
	})
}

func TestCureStableVectorAdvances(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{dcs: 2, parts: 2, useHLC: true})
	srv := tc.servers[0][0]
	eventually(t, 3*time.Second, "stable vector advances in all entries", func() bool {
		gsv := srv.StableVector()
		return gsv[0] > 0 && gsv[1] > 0
	})
}

// keyOnPartition finds a key hashing to the given partition.
func keyOnPartition(t *testing.T, p, parts int) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("key-%d", i)
		if sharding.PartitionOf(k, parts) == p {
			return k
		}
	}
	t.Fatal("no key found for partition")
	return ""
}
