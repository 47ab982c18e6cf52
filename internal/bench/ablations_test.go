package bench

import (
	"os"
	"strings"
	"testing"
	"time"
)

// durableBackendOverride reports the non-default storage backend the suite
// was forced onto via WREN_STORE_BACKEND (CI's WAL job), or "". Latency-
// ordering assertions comparing sub-millisecond protocol deltas are
// skipped under a durable backend: fsync and page-cache noise on shared CI
// disks swamps the structural difference they measure.
func durableBackendOverride() string {
	if b := os.Getenv("WREN_STORE_BACKEND"); b != "" && b != "memory" {
		return b
	}
	return ""
}

func TestBlockingCommitAblation(t *testing.T) {
	o := tinyOptions()
	rows, err := RunBlockingCommitAblation(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("expected 2 variants, got %d", len(rows))
	}
	var cache, blocking AblationResult
	for _, r := range rows {
		if strings.Contains(r.Variant, "blocking") {
			blocking = r
		} else {
			cache = r
		}
	}
	if cache.Throughput <= 0 || blocking.Throughput <= 0 {
		t.Fatalf("degenerate results: %+v", rows)
	}
	// Blocking commits must cost latency: each commit waits for the local
	// stable snapshot to cover it — since stabilization became event-driven
	// that is an exchange between the partitions (found by a 1 ms poll),
	// not an apply plus a gossip tick, and still more than no wait at all.
	if b := durableBackendOverride(); b != "" {
		t.Logf("latency-ordering assertion skipped under WREN_STORE_BACKEND=%s", b)
	} else if blocking.MeanLatMs <= cache.MeanLatMs {
		t.Errorf("blocking commits (%.2fms) should be slower than the client cache (%.2fms)",
			blocking.MeanLatMs, cache.MeanLatMs)
	}
	if FormatAblation("t", rows) == "" {
		t.Error("empty formatting")
	}
}

func TestGossipTopologyAblation(t *testing.T) {
	o := tinyOptions()
	o.Partitions = 4 // enough partitions for the tree to matter
	rows, err := RunGossipTopologyAblation(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("expected 2 variants, got %d", len(rows))
	}
	var broadcast, tree AblationResult
	for _, r := range rows {
		if strings.Contains(r.Variant, "tree") {
			tree = r
		} else {
			broadcast = r
		}
	}
	// The tree topology must move fewer stabilization bytes: 2(N-1) vs
	// N(N-1) messages per round.
	if tree.StabBytesPS >= broadcast.StabBytesPS {
		t.Errorf("tree stabilization (%.0f B/s) should be below broadcast (%.0f B/s)",
			tree.StabBytesPS, broadcast.StabBytesPS)
	}
}

func TestSnapshotAgeAblation(t *testing.T) {
	o := tinyOptions()
	o.Measure = 600 * time.Millisecond
	// The prober's cluster is otherwise quiet, so the tickers are still the
	// carriers here: the marker's origin partition installs it at its
	// CommitTx (both protocols, event-driven), but Wren's LST also needs
	// the partitions that took no part in it, which move their clocks on
	// their ΔR tick and report them on their ΔG broadcast when no
	// transaction message does it for them. Cure's age is the one hop to
	// the origin partition. With ΔG == ΔR the tickers, all started
	// together, fire in near-lockstep and the gossip hop costs mere
	// scheduling noise; spreading the periods makes the structural
	// difference dominate the measurement.
	o.Server.GossipInterval = 4 * o.Server.ApplyInterval
	rows, err := RunSnapshotAgeAblation(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("expected 2 rows, got %d", len(rows))
	}
	// Wren's snapshots are older than Cure's: its local visibility
	// latency (snapshot age) must be at least Cure's.
	var wrenAge, cureAge float64
	for _, r := range rows {
		switch r.Variant {
		case "Wren":
			wrenAge = r.ExtraValue
		case "Cure":
			cureAge = r.ExtraValue
		}
	}
	if wrenAge <= 0 || cureAge <= 0 {
		t.Fatalf("missing visibility measurements: %+v", rows)
	}
	if wrenAge < cureAge {
		t.Errorf("Wren local visibility (%.2fms) should not beat Cure's (%.2fms): older snapshots are the trade-off",
			wrenAge, cureAge)
	}
}

func TestGossipIntervalAblation(t *testing.T) {
	o := tinyOptions()
	o.Measure = 600 * time.Millisecond
	rows, err := RunGossipIntervalAblation(o, []time.Duration{
		time.Millisecond, 8 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("expected 2 rows, got %d", len(rows))
	}
	fast, slow := rows[0], rows[1]
	// A longer gossip period must reduce stabilization traffic...
	if slow.StabBytesPS >= fast.StabBytesPS {
		t.Errorf("ΔG=8ms traffic (%.0f B/s) should be below ΔG=1ms (%.0f B/s)",
			slow.StabBytesPS, fast.StabBytesPS)
	}
	// ...and increase local visibility latency: on this quiet cluster the
	// ΔG broadcast is what carries the idle partitions' clocks (under load
	// the transaction messages do, and ΔG stops mattering).
	if slow.ExtraValue < fast.ExtraValue {
		t.Errorf("ΔG=8ms visibility (%.2fms) should not beat ΔG=1ms (%.2fms)",
			slow.ExtraValue, fast.ExtraValue)
	}
}
