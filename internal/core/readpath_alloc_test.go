package core

import (
	"fmt"
	"testing"

	"wren/internal/hlc"
	"wren/internal/replica/replicatest"
	"wren/internal/sharding"
	"wren/internal/store"
	"wren/internal/store/sst"
	"wren/internal/transport"
	"wren/internal/wire"
)

// These tests pin the slice-read hot path at its post-optimization
// allocation counts. The baseline before the contention-free read path was
// 5 allocs/op for readSlice over 8 keys (visibility closure, result slice,
// grouping scratch ×2, item slice); the pooled/caller-buffer design is
// zero-alloc in steady state, and any regression fails CI's bench-smoke
// job.

func newAllocServer(tb testing.TB, backendName, dir string) *Server {
	tb.Helper()
	net := transport.NewMemory(nil, 0)
	s, err := NewServer(ServerConfig{
		DC: 0, Partition: 0, NumDCs: 1, NumPartitions: 1, Network: net,
		GCInterval:   -1,
		StoreBackend: backendName,
		DataDir:      dir,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		if err := s.Store().Close(); err != nil {
			tb.Errorf("engine close: %v", err)
		}
		net.Close()
	})
	return s
}

func fillKeys(s *Server, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("user%08d", i)
		s.Store().Put(keys[i], &store.Version{
			Value: []byte("12345678"), UT: hlc.Timestamp(100 + i), RDT: 0, TxID: uint64(i), SrcDC: 0,
		})
	}
	return keys
}

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("exact allocation pins are meaningless under -race (pool instrumentation allocates)")
	}
}

func measureReadSliceAllocs(t *testing.T, s *Server) float64 {
	t.Helper()
	keys := fillKeys(s, 64)[:8]
	lt, rt := hlc.Timestamp(1<<40), hlc.Timestamp(1<<40)
	var items []wire.Item
	// Warm the pools and the dst buffer to steady-state capacity.
	for i := 0; i < 10; i++ {
		items = s.readSlice(keys, lt, rt, items[:0])
	}
	if len(items) != len(keys) {
		t.Fatalf("readSlice returned %d items, want %d", len(items), len(keys))
	}
	return testing.AllocsPerRun(200, func() {
		items = s.readSlice(keys, lt, rt, items[:0])
	})
}

func TestReadSliceAllocsMemory(t *testing.T) {
	skipUnderRace(t)
	s := newAllocServer(t, "", "")
	if allocs := measureReadSliceAllocs(t, s); allocs > 0 {
		t.Fatalf("readSlice(8 keys, memory engine) allocates %.1f/op, want 0 (baseline before this PR: 5)", allocs)
	}
}

// TestReadSliceAllocsWAL pins the sst engine's memtable path on versions
// a restarted server recovered by replaying the engine's write-ahead log:
// no run exists, so every read is served from the rebuilt memtable.
func TestReadSliceAllocsWAL(t *testing.T) {
	skipUnderRace(t)
	dir := t.TempDir()
	first := newAllocServer(t, "sst", dir)
	fillKeys(first, 64)
	first.Stop()
	s := newAllocServer(t, "sst", dir)
	if got := s.Obs().Value("sst.recovered"); got != 64 {
		t.Fatalf("restart replayed %d versions from the write-ahead log, want 64", got)
	}
	if allocs := measureReadSliceAllocs(t, s); allocs > 0 {
		t.Fatalf("readSlice(8 keys, sst engine, recovered memtable) allocates %.1f/op, want 0", allocs)
	}
}

func TestReadSliceAllocsSST(t *testing.T) {
	skipUnderRace(t)
	s := newAllocServer(t, "sst", t.TempDir())
	// Flush the first fill into an immutable run so the measurement covers
	// the tiered path — memtable probe plus lock-free run merge — not just
	// the memtable fast path (measureReadSliceAllocs refills the same keys
	// afterwards, layering fresh memtable versions over the run).
	fillKeys(s, 64)
	if err := s.Store().(*sst.Engine).Flush(); err != nil {
		t.Fatal(err)
	}
	if allocs := measureReadSliceAllocs(t, s); allocs > 0 {
		t.Fatalf("readSlice(8 keys, sst engine, run+memtable) allocates %.1f/op, want 0", allocs)
	}
}

// TestSliceReqServeAllocs pins the full cohort-side slice service —
// stable-time merge, pooled request/response, batched store read, response
// delivery and release — at zero steady-state allocations. Before this PR
// the same cycle cost 7 allocations (visibility closure, result slice,
// grouping scratch ×2, item slice, response message and its items).
func TestSliceReqServeAllocs(t *testing.T) {
	skipUnderRace(t)
	net := replicatest.NewSyncNet()
	s, err := NewServer(ServerConfig{
		DC: 0, Partition: 0, NumDCs: 1, NumPartitions: 1, Network: net,
		GCInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Store().Close() })
	keys := fillKeys(s, 64)[:8]
	sink := transport.ClientID(0, 0)
	net.Register(sink, transport.HandlerFunc(func(_ transport.NodeID, m wire.Message) {
		if resp, ok := m.(*wire.SliceResp); ok {
			wire.PutSliceResp(resp)
		}
	}))
	serve := func() {
		r := wire.GetSliceReq()
		r.ReqID, r.LT, r.RT = 1, 1<<40, 1<<40
		r.Keys = append(r.Keys[:0], keys...)
		s.handleSliceReq(sink, r)
	}
	for i := 0; i < 10; i++ {
		serve() // warm the pools
	}
	if allocs := testing.AllocsPerRun(200, serve); allocs > 0 {
		t.Fatalf("handleSliceReq end-to-end allocates %.1f/op, want 0 (baseline before this PR: 7)", allocs)
	}
}

func BenchmarkReadSlice8(b *testing.B) {
	net := transport.NewMemory(nil, 0)
	defer net.Close()
	s, err := NewServer(ServerConfig{
		DC: 0, Partition: 0, NumDCs: 1, NumPartitions: 1, Network: net,
		GCInterval: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = s.Store().Close() }()
	keys := fillKeys(s, 64)[:8]
	lt, rt := hlc.Timestamp(1<<40), hlc.Timestamp(1<<40)
	var items []wire.Item
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		items = s.readSlice(keys, lt, rt, items[:0])
	}
}

func BenchmarkSliceReqServe8(b *testing.B) {
	net := replicatest.NewSyncNet()
	s, err := NewServer(ServerConfig{
		DC: 0, Partition: 0, NumDCs: 1, NumPartitions: 1, Network: net,
		GCInterval: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = s.Store().Close() }()
	keys := fillKeys(s, 64)[:8]
	sink := transport.ClientID(0, 0)
	net.Register(sink, transport.HandlerFunc(func(_ transport.NodeID, m wire.Message) {
		if resp, ok := m.(*wire.SliceResp); ok {
			wire.PutSliceResp(resp)
		}
	}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := wire.GetSliceReq()
		r.ReqID, r.LT, r.RT = 1, 1<<40, 1<<40
		r.Keys = append(r.Keys[:0], keys...)
		s.handleSliceReq(sink, r)
	}
}

// TestCoordinatorRoundAllocs pins one coordinator round — StartTx, then a
// read of 8 keys — at 1 partition (every key served in place) and at 2
// (one slice travels to the other partition and back). Three allocations
// remain: the two request literals and the StartTxResp. The context is
// held by value, and the fan-out scratch, the fan-in, the slice messages
// and the TxReadResp with its items come from pools.
func TestCoordinatorRoundAllocs(t *testing.T) {
	for _, parts := range []int{1, 2} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			net := replicatest.NewSyncNet()
			servers := make([]*Server, parts)
			for p := range servers {
				s, err := NewServer(ServerConfig{
					DC: 0, Partition: p, NumDCs: 1, NumPartitions: parts, Network: net, GCInterval: -1,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = s.Store().Close() })
				net.Register(s.ID(), s.Runtime)
				servers[p] = s
			}
			keys := make([]string, 8)
			for i := range keys {
				keys[i] = fmt.Sprintf("user%08d", i)
				servers[sharding.PartitionOf(keys[i], parts)].Store().Put(keys[i],
					&store.Version{Value: []byte("12345678"), TxID: uint64(i) + 1})
			}
			allocs := replicatest.CoordinatorRoundAllocs(t, net, servers[0].ID(), keys)
			t.Logf("%.2f allocs per round", allocs)
			if allocs > 3 {
				t.Fatalf("a coordinator round allocates %.2f/op, want ≤ 3", allocs)
			}
		})
	}
}
