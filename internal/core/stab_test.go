package core

import (
	"math/rand"
	"sync"
	"testing"

	"wren/internal/hlc"
	"wren/internal/replica/replicatest"
	"wren/internal/transport"
	"wren/internal/wire"
)

// newStabServer builds an unstarted partition 0 of a parts-partition DC:
// nothing runs but what the test calls.
func newStabServer(tb testing.TB, dcs, parts int) *Server {
	tb.Helper()
	s, err := NewServer(ServerConfig{
		DC: 0, Partition: 0, NumDCs: dcs, NumPartitions: parts,
		Network: replicatest.NewSyncNet(), GCInterval: -1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = s.Store().Close() })
	return s
}

// TestStabFoldAllocs pins stamping and folding — which run on every slice
// read — at zero allocations, news or no news.
func TestStabFoldAllocs(t *testing.T) {
	skipUnderRace(t)
	s := newStabServer(t, 2, 4)
	p := (*wrenProtocol)(s)
	var out wire.Stab
	next := hlc.Timestamp(1 << 20)
	allocs := testing.AllocsPerRun(200, func() {
		next += 16
		for from := 1; from < 4; from++ {
			// Fresh contribution and a Seen above the local version clock:
			// the fold republishes and the demand rule fires.
			p.ObserveStable(from, wire.Stab{Local: next, RemoteMin: next - 8, Seen: next})
			// The same stamp again is the duplicate every fold must absorb.
			p.ObserveStable(from, wire.Stab{Local: next, RemoteMin: next - 8, Seen: next})
		}
		out = p.StampStable()
	})
	if allocs > 0 {
		t.Fatalf("ObserveStable + StampStable allocate %.1f/op, want 0", allocs)
	}
	if out.Seen != next {
		t.Fatalf("stamp carries Seen %v, want the highest one heard, %v", out.Seen, next)
	}
}

// TestObserveStableRefusesStrangers: a stamp is folded only for a partition
// index of this DC — the runtime vouches for the DC, the protocol for the
// index — and anything else leaves the stable times alone.
func TestObserveStableRefusesStrangers(t *testing.T) {
	s := newStabServer(t, 1, 2)
	stab := wire.Stab{Local: 100, RemoteMin: 100, Seen: 100}
	(*wrenProtocol)(s).ObserveStable(-1, stab)
	(*wrenProtocol)(s).ObserveStable(2, stab)
	s.ObserveStable(transport.ClientID(0, 1), stab) // a client, not a partition
	s.ObserveStable(transport.ServerID(1, 1), stab) // partition 1 of another DC
	reg := s.Obs()
	if local, remoteMin := reg.Value("stab.local.p1"), reg.Value("stab.remote_min.p1"); local != 0 || remoteMin != 0 {
		t.Fatalf("a stranger's stamp was folded: local %v remoteMin %v", local, remoteMin)
	}
	s.ObserveStable(transport.ServerID(0, 1), stab)
	if local := reg.Value("stab.local.p1"); local != 100 {
		t.Fatalf("partition 1's own stamp was not folded: local %v", local)
	}
}

// TestStabFoldProperty delivers random stamps to one server duplicated,
// reordered and from several goroutines at once, and checks what the
// lock-free fold promises whatever the interleaving: LST and RST never move
// backwards, and never pass the minimum over partitions of the highest
// contribution delivered so far (a partition not heard from counts as zero).
func TestStabFoldProperty(t *testing.T) {
	const parts, senders, rounds = 4, 4, 300
	for seed := int64(1); seed <= 20; seed++ {
		s := newStabServer(t, 2, parts)
		p := (*wrenProtocol)(s)
		rng := rand.New(rand.NewSource(seed))

		// Each partition's stamps grow over time, as published clocks do;
		// delivery then shuffles and duplicates them.
		type delivery struct {
			from int
			stab wire.Stab
		}
		var all []delivery
		for from := 0; from < parts; from++ {
			var local, remote hlc.Timestamp
			for i := 0; i < rounds; i++ {
				local += hlc.Timestamp(rng.Intn(50))
				remote += hlc.Timestamp(rng.Intn(50))
				d := delivery{from, wire.Stab{Local: local, RemoteMin: remote}}
				all = append(all, d)
				if rng.Intn(4) == 0 {
					all = append(all, d)
				}
			}
		}
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })

		// delivered[p] is the highest contribution handed to ObserveStable
		// for partition p BEFORE the call returned; a bound computed from a
		// snapshot taken after reading lst/rst is therefore never too low.
		var mu sync.Mutex
		deliveredLocal := make([]hlc.Timestamp, parts)
		deliveredRemote := make([]hlc.Timestamp, parts)
		check := func(prevL, prevR hlc.Timestamp) (hlc.Timestamp, hlc.Timestamp) {
			lst, rst := s.StableTimes()
			mu.Lock()
			boundL, boundR := hlc.Min(deliveredLocal...), hlc.Min(deliveredRemote...)
			mu.Unlock()
			if lst < prevL || rst < prevR {
				t.Errorf("seed %d: stable times moved backwards: lst %v -> %v, rst %v -> %v", seed, prevL, lst, prevR, rst)
			}
			if lst > boundL || rst > boundR {
				t.Errorf("seed %d: stable times (%v, %v) pass the minimum delivered (%v, %v)", seed, lst, rst, boundL, boundR)
			}
			return lst, rst
		}

		var wg sync.WaitGroup
		for g := 0; g < senders; g++ {
			wg.Add(1)
			go func(mine []delivery) {
				defer wg.Done()
				var prevL, prevR hlc.Timestamp
				for _, d := range mine {
					mu.Lock()
					deliveredLocal[d.from] = hlc.Max(deliveredLocal[d.from], d.stab.Local)
					deliveredRemote[d.from] = hlc.Max(deliveredRemote[d.from], d.stab.RemoteMin)
					mu.Unlock()
					p.ObserveStable(d.from, d.stab)
					prevL, prevR = check(prevL, prevR)
				}
			}(all[g*len(all)/senders : (g+1)*len(all)/senders])
		}
		wg.Wait()

		// Everything delivered: the fold must have converged on the bound.
		lst, rst := s.StableTimes()
		if wantL, wantR := hlc.Min(deliveredLocal...), hlc.Min(deliveredRemote...); lst != wantL || rst != wantR {
			t.Errorf("seed %d: stable times (%v, %v) after delivering everything, want the minima (%v, %v)", seed, lst, rst, wantL, wantR)
		}
	}
}
