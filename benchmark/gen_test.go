package main

import (
	"testing"

	"wren/internal/sharding"
)

func TestStreamIsPinned(t *testing.T) {
	if err := checkPinned(); err != nil {
		t.Error(err)
	}
	for _, s := range specs {
		got := streamHash(s, 1, 10000)
		if again := streamHash(s, 1, 10000); again != got {
			t.Errorf("%s: the same seed gave %#x then %#x", s.name, got, again)
		}
		if other := streamHash(s, 2, 10000); other == got {
			t.Errorf("%s: seeds 1 and 2 give the same stream", s.name)
		}
	}
}

// TestOnlyGeneratedInputs checks that everything a session can send comes
// out of the keyspace and the value format: keys sit on the partition their
// id says, a transaction never repeats a key, and values parse back to their
// writer.
func TestOnlyGeneratedInputs(t *testing.T) {
	for _, s := range specs {
		s := s.scaled(16)
		ks := newKeyspace(s)
		for id, k := range ks.keys {
			if p := sharding.PartitionOf(k, s.partitions); p != id/s.keysPerPartition {
				t.Fatalf("%s: key %s has id %d but lives on partition %d", s.name, k, id, p)
			}
		}
		if s.geo && sharding.PartitionOf(ks.markers[0], s.partitions) == sharding.PartitionOf(ks.markers[1], s.partitions) {
			t.Errorf("%s: both markers are on one partition", s.name)
		}
		g := newGenerator(s, s.mix, 1, 0)
		for i := 0; i < 5000; i++ {
			o := g.next()
			seen := make(map[int32]bool)
			for _, id := range append(append([]int32{}, o.reads...), o.writes...) {
				if id < 0 || int(id) >= len(ks.keys) || seen[id] {
					t.Fatalf("%s: op %d uses key id %d twice or out of range", s.name, i, id)
				}
				seen[id] = true
			}
			if o.scanStart >= int32(len(ks.keys)) {
				t.Fatalf("%s: op %d scans from key id %d", s.name, i, o.scanStart)
			}
		}
		v := value(make([]byte, s.valueBytes), 7, 42)
		if w, seq, ok := parseValue(v, s.valueBytes); !ok || w != 7 || seq != 42 {
			t.Errorf("%s: value round trip gave (%d, %d, %v)", s.name, w, seq, ok)
		}
		if _, _, ok := parseValue(v[:len(v)-1], s.valueBytes); ok {
			t.Errorf("%s: a truncated value parsed", s.name)
		}
	}
}

func TestIQRMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := iqr(xs), 8.25-2.75; got != want {
		t.Errorf("iqr = %v, want %v", got, want)
	}
}
