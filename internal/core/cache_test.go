package core

import (
	"fmt"
	"testing"
	"time"

	"wren/internal/hlc"
)

// TestCacheOverwritesDuplicateEntries verifies Algorithm 1 line 31: moving
// the write set into the cache overwrites older duplicates, so the cache
// always holds the client's freshest version of each key.
func TestCacheOverwritesDuplicateEntries(t *testing.T) {
	// Held stabilization: nothing ever leaves the cache via pruning.
	tc := newTestCluster(t, clusterOpts{dcs: 1, parts: 2})
	tc.holdStabilization(0)
	c := tc.client(0)
	commitKV(t, c, map[string]string{"dup": "v1"})
	commitKV(t, c, map[string]string{"dup": "v2"})
	if c.CacheSize() != 1 {
		t.Fatalf("cache size = %d, want 1 (duplicate overwritten)", c.CacheSize())
	}
	got := readKeys(t, c, "dup")
	if string(got["dup"]) != "v2" {
		t.Fatalf("cache returned %q, want freshest own write v2", got["dup"])
	}
}

// TestCacheServesManyKeys exercises a cache holding several uninstalled
// writes at once.
func TestCacheServesManyKeys(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{dcs: 1, parts: 4})
	tc.holdStabilization(0)
	c := tc.client(0)
	want := map[string]string{}
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("cache-key-%d", i)
		want[k] = fmt.Sprintf("v%d", i)
	}
	commitKV(t, c, want)
	if c.CacheSize() != len(want) {
		t.Fatalf("cache size = %d, want %d", c.CacheSize(), len(want))
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	got := readKeys(t, c, keys...)
	for k, v := range want {
		if string(got[k]) != v {
			t.Fatalf("key %s: got %q, want %q", k, got[k], v)
		}
	}
}

// TestRandomCoordinatorMode checks that CoordinatorPartition < 0 (the
// paper's "picks a coordinator at random") works and still preserves
// session monotonicity across coordinators.
func TestRandomCoordinatorMode(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{dcs: 1, parts: 4})
	c, err := NewClient(ClientConfig{
		DC: 0, ClientIndex: 999, NumPartitions: 4,
		Network:              tc.net,
		CoordinatorPartition: -1,
		RequestTimeout:       5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	var prevLT, prevRT hlc.Timestamp
	for i := 0; i < 30; i++ {
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		lt, rt := tx.Snapshot()
		if lt < prevLT || rt < prevRT {
			t.Fatalf("random coordinators broke snapshot monotonicity at %d", i)
		}
		prevLT, prevRT = lt, rt
		if err := tx.Write(fmt.Sprintf("rc-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Read everything back through yet another random coordinator.
	keys := make([]string, 30)
	for i := range keys {
		keys[i] = fmt.Sprintf("rc-%d", i)
	}
	got := readKeys(t, c, keys...)
	if len(got) != 30 {
		t.Fatalf("read %d keys back, want 30", len(got))
	}
}
