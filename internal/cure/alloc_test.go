package cure

import (
	"fmt"
	"testing"

	"wren/internal/hlc"
	"wren/internal/replica/replicatest"
	"wren/internal/sharding"
	"wren/internal/store"
)

// TestCoordinatorRoundAllocs pins one H-Cure coordinator round — StartTx,
// then a read of 8 keys — at 1 partition and at 2. Every slice, the
// coordinator's own included, travels as a SliceReq and parks until the
// apply pass it triggers installs the snapshot. Beyond Wren's three (the
// request literals and the StartTxResp) a round allocates the snapshot
// vector and, per slice, the parked waiter and the ready list that
// releases it. The context itself is held by value: with a pointer to it,
// the round cost one more at both sizes.
func TestCoordinatorRoundAllocs(t *testing.T) {
	for _, tc := range []struct {
		parts int
		max   float64
	}{{1, 6}, {2, 8}} {
		t.Run(fmt.Sprintf("partitions=%d", tc.parts), func(t *testing.T) {
			net := replicatest.NewSyncNet()
			servers := make([]*Server, tc.parts)
			for p := range servers {
				s, err := NewServer(ServerConfig{
					DC: 0, Partition: p, NumDCs: 1, NumPartitions: tc.parts, Network: net, GCInterval: -1, UseHLC: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = s.Store().Close() })
				net.Register(s.ID(), s.Runtime)
				servers[p] = s
			}
			keys := make([]string, 8)
			dv := []hlc.Timestamp{0}
			for i := range keys {
				keys[i] = fmt.Sprintf("user%08d", i)
				servers[sharding.PartitionOf(keys[i], tc.parts)].Store().Put(keys[i],
					&store.Version{Value: []byte("12345678"), TxID: uint64(i) + 1, DV: dv})
			}
			allocs := replicatest.CoordinatorRoundAllocs(t, net, servers[0].ID(), keys)
			t.Logf("%.2f allocs per round", allocs)
			if allocs > tc.max {
				t.Fatalf("a coordinator round allocates %.2f/op, want ≤ %.0f", allocs, tc.max)
			}
		})
	}
}
