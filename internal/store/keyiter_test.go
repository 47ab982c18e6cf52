package store

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"wren/internal/hlc"
)

// keysFrom drains a KeyIter, stopping past the store's key count so an
// index that repeats a key fails the comparison instead of looping.
func keysFrom(s *Store, start string) []string {
	var out []string
	for it := s.KeysFrom(start); len(out) <= s.Keys() && it.Next(); {
		out = append(out, it.Key())
	}
	return out
}

// TestKeyIndexFollowsChains: after random puts, GC drops and chain prunes,
// KeysFrom yields exactly the keys holding a chain, ascending, from any
// start — on one stripe and on many.
func TestKeyIndexFollowsChains(t *testing.T) {
	for _, shards := range []int{1, 64} {
		s := NewSharded(shards)
		r := rand.New(rand.NewSource(int64(shards)))
		ut := int64(0)
		for step := 0; step < 4000; step++ {
			key := fmt.Sprintf("k-%03d", r.Intn(300))
			ut++
			switch op := r.Intn(10); {
			case op < 6:
				s.Put(key, ver(ut, 0, uint64(ut), "v"))
			case op < 8:
				s.Put(key, &Version{UT: hlc.New(ut, 0), TxID: uint64(ut)}) // tombstone
			case op < 9:
				if base := s.Latest(key); base != nil {
					s.PruneChain(key, base, true)
				}
			default:
				s.GC(hlc.New(ut-int64(r.Intn(50)), 0))
			}
		}
		var want []string
		for si := range s.shards {
			for k := range s.shards[si].chains {
				want = append(want, k)
			}
		}
		slices.Sort(want)
		for _, start := range []string{"", "k-100", "k-1505", "k-299", "l"} {
			i, _ := slices.BinarySearch(want, start)
			if got := keysFrom(s, start); !slices.Equal(got, want[i:]) {
				t.Fatalf("%d shards: KeysFrom(%q) = %d keys, want %d (%v...)", shards, start, len(got), len(want)-i, got[:min(len(got), 5)])
			}
		}
	}
}

// TestScanCostFollowsLimit: a scan that stops after 64 keys costs the same
// allocations over 1 024 keys as over 65 536 — it walks the ordered key
// index from start instead of copying every stripe's key set.
func TestScanCostFollowsLimit(t *testing.T) {
	allocs := func(n int) float64 {
		s := New()
		val := []byte("v")
		for i := 0; i < n; i++ {
			s.Put(fmt.Sprintf("k-%06d", i), &Version{Value: val, UT: hlc.Timestamp(1 + i)})
		}
		start := fmt.Sprintf("k-%06d", n/2)
		return testing.AllocsPerRun(50, func() {
			got := 0
			_ = s.Scan(start, "", all, func(string, *Version) bool { got++; return got < 64 })
			if got != 64 {
				t.Fatalf("scan yielded %d keys, want 64", got)
			}
		})
	}
	if small, large := allocs(1024), allocs(65536); small != large {
		t.Fatalf("a 64-key scan allocates %.0f times over 1 024 keys and %.0f over 65 536: its cost follows the store's size", small, large)
	}
}
