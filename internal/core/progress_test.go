package core

import (
	"fmt"
	"testing"
	"time"

	"wren/internal/hlc"
	"wren/internal/store"
)

// TestRSTProgressWhenIdle verifies the heartbeat mechanism of Algorithm 4
// (lines 18-21): with no transactions committing anywhere, remote stable
// time must still advance, because idle partitions heartbeat their peers.
func TestRSTProgressWhenIdle(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{dcs: 2, parts: 2})
	srv := tc.servers[0][0]

	// Warm up stabilization, take a reading, wait, take another.
	time.Sleep(100 * time.Millisecond)
	_, rst1 := srv.StableTimes()
	if rst1 == 0 {
		t.Fatal("RST never initialized")
	}
	time.Sleep(100 * time.Millisecond)
	_, rst2 := srv.StableTimes()
	if rst2 <= rst1 {
		t.Fatalf("RST did not advance while idle: %v -> %v (heartbeats broken)", rst1, rst2)
	}
	// Progress should be close to wall time: at least half the elapsed
	// interval (heartbeats every ΔR=1ms, gossip every 1ms, WAN 5ms).
	if delta := rst2.Physical() - rst1.Physical(); delta < (50 * time.Millisecond).Microseconds() {
		t.Fatalf("RST advanced only %dµs in 100ms of idle time", delta)
	}
}

// TestLSTProgressWhenIdle does the same for the local stable time.
func TestLSTProgressWhenIdle(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{dcs: 1, parts: 3})
	srv := tc.servers[0][1]
	time.Sleep(50 * time.Millisecond)
	lst1, _ := srv.StableTimes()
	time.Sleep(100 * time.Millisecond)
	lst2, _ := srv.StableTimes()
	if lst2 <= lst1 {
		t.Fatalf("LST did not advance while idle: %v -> %v", lst1, lst2)
	}
}

// TestSnapshotFreshnessBound checks the staleness trade-off the paper
// accepts: the local stable snapshot lags real time by roughly ΔR + ΔG
// plus propagation, not unboundedly.
func TestSnapshotFreshnessBound(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{dcs: 1, parts: 2})
	time.Sleep(100 * time.Millisecond)
	srv := tc.servers[0][0]
	lst, _ := srv.StableTimes()
	now := hlc.FromTime(time.Now())
	lagMicros := now.Physical() - lst.Physical()
	// ΔR = ΔG = 1ms in this cluster; allow a generous 100ms bound to stay
	// robust on loaded CI machines.
	if lagMicros < 0 {
		t.Fatalf("LST is in the future by %dµs", -lagMicros)
	}
	if lagMicros > (100 * time.Millisecond).Microseconds() {
		t.Fatalf("local stable snapshot lags by %dµs; staleness unbounded?", lagMicros)
	}
}

// TestVisibilityPredicate unit-tests the CANToR visibility rule of
// Algorithm 3 in isolation.
func TestVisibilityPredicate(t *testing.T) {
	const localDC = 1
	lt, rt := hlc.New(100, 0), hlc.New(80, 0)
	pred := &cantorPred{localDC: localDC, lt: lt, rt: rt}

	tests := []struct {
		name string
		src  uint8
		ut   hlc.Timestamp
		rdt  hlc.Timestamp
		want bool
	}{
		{name: "local within snapshot", src: 1, ut: hlc.New(100, 0), rdt: hlc.New(80, 0), want: true},
		{name: "local ut too new", src: 1, ut: hlc.New(101, 0), rdt: hlc.New(10, 0), want: false},
		{name: "local rdt too new", src: 1, ut: hlc.New(50, 0), rdt: hlc.New(81, 0), want: false},
		{name: "remote within snapshot", src: 0, ut: hlc.New(80, 0), rdt: hlc.New(100, 0), want: true},
		{name: "remote ut bounded by rt", src: 0, ut: hlc.New(81, 0), rdt: hlc.New(10, 0), want: false},
		{name: "remote rdt bounded by lt", src: 0, ut: hlc.New(10, 0), rdt: hlc.New(101, 0), want: false},
		{name: "zero version always visible", src: 2, ut: 0, rdt: 0, want: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v := &store.Version{SrcDC: tt.src, UT: tt.ut, RDT: tt.rdt}
			if got := pred.visible(v); got != tt.want {
				t.Errorf("visible(src=%d ut=%v rdt=%v) = %v, want %v",
					tt.src, tt.ut, tt.rdt, got, tt.want)
			}
		})
	}
}

// TestTxIDUniqueAcrossServers verifies the id scheme embeds (DC, partition).
func TestTxIDUniqueAcrossServers(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{dcs: 2, parts: 2})
	ids := make(map[uint64]string)
	for dc := 0; dc < 2; dc++ {
		for p := 0; p < 2; p++ {
			srv := tc.servers[dc][p]
			for i := 0; i < 100; i++ {
				id := srv.NewTxID()
				if prev, dup := ids[id]; dup {
					t.Fatalf("txid %d issued by both %s and dc%d/p%d", id, prev, dc, p)
				}
				ids[id] = fmt.Sprintf("dc%d/p%d", dc, p)
			}
		}
	}
}
