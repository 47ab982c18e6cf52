package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"wren/internal/core"
	"wren/internal/cure"
	"wren/internal/replica"
	"wren/internal/store/backend"
)

// TestReadOnlyAdmission proves the servers ACT on the durability health
// signal (the open ROADMAP item "servers act on Engine.Healthy"): once a
// server's transaction log degrades, new writes through it — as
// coordinator or as 2PC cohort — are refused with the typed read-only
// error, reads keep flowing on their nonblocking path, healthy partitions
// keep committing, and the state is observable through the HealthReq wire
// probe that backs wren-cli's health command.
func TestReadOnlyAdmission(t *testing.T) {
	for _, proto := range []Protocol{Wren, HCure} {
		t.Run(proto.String(), func(t *testing.T) { testReadOnlyAdmission(t, proto) })
	}
}

func testReadOnlyAdmission(t *testing.T, proto Protocol) {
	cfg := Config{
		Protocol:      proto,
		NumDCs:        1,
		NumPartitions: 2,
		Server: replica.Config{
			StoreBackend: backend.SST,
			DataDir:      t.TempDir(),
			// Pin the degradation: this test asserts the STICKY read-only
			// state, so the automatic probation exit must stay off (the
			// readmit path has its own conformance scenario).
			RepairInterval: -1,
		},
	}
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Keys owned by each partition, found by probing the hash.
	ownedBy := func(p int) string {
		for i := 0; ; i++ {
			k := fmt.Sprintf("ro-%s-%d", proto, i)
			if partitionOf(k, cfg.NumPartitions) == p {
				return k
			}
		}
	}
	k0, k1 := ownedBy(0), ownedBy(1)

	client, err := cl.NewClient(0, 0) // coordinator partition 0
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	commit := func(keys ...string) error {
		tx, err := client.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if err := tx.Write(k, []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		_, err = tx.Commit()
		return err
	}
	if err := commit(k0, k1); err != nil {
		t.Fatalf("healthy commit failed: %v", err)
	}

	// Degrade partition 1's transaction log. Partition 0 stays healthy.
	injected := errors.New("injected log failure")
	var wantErr error
	if proto == Wren {
		cl.WrenServer(0, 1).TxLog().InjectFailure(injected)
		wantErr = core.ErrReadOnly
		if !cl.WrenServer(0, 1).ReadOnly() || cl.WrenServer(0, 0).ReadOnly() {
			t.Fatal("ReadOnly flags wrong after injection")
		}
	} else {
		cl.CureServer(0, 1).TxLog().InjectFailure(injected)
		wantErr = cure.ErrReadOnly
		if !cl.CureServer(0, 1).ReadOnly() || cl.CureServer(0, 0).ReadOnly() {
			t.Fatal("ReadOnly flags wrong after injection")
		}
	}
	if err := cl.Healthy(); err == nil {
		t.Fatal("Cluster.Healthy must surface the injected failure")
	}
	if cl.EnginesHealthy() != nil {
		t.Fatal("EnginesHealthy must stay engine-only (the engine is fine)")
	}

	// A write touching the degraded partition as COHORT (healthy
	// coordinator 0) must be refused via the 2PC abort path.
	if err := commit(k1); !errors.Is(err, wantErr) {
		t.Fatalf("cohort-degraded commit: got %v, want %v", err, wantErr)
	}
	// Direct writes through the degraded COORDINATOR must be refused too.
	cl1, err := cl.NewClient(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl1.Close()
	tx, err := cl1.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(k0, []byte("w")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); !errors.Is(err, wantErr) {
		t.Fatalf("coordinator-degraded commit: got %v, want %v", err, wantErr)
	}

	// Writes confined to healthy partitions still commit...
	if err := commit(k0); err != nil {
		t.Fatalf("healthy-partition commit refused: %v", err)
	}
	// ...and reads — including of the degraded partition's keys — keep
	// their nonblocking path on both servers.
	rtx, err := client.Begin()
	if err != nil {
		t.Fatal(err)
	}
	got, err := rtx.Read(k0, k1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rtx.Commit(); err != nil {
		t.Fatalf("read-only commit must be admitted in degraded mode: %v", err)
	}
	if string(got[k1]) != "v" {
		t.Fatalf("read of degraded partition's key = %q, want %q", got[k1], "v")
	}

	// The degraded state is observable over the wire (wren-cli health).
	probe := func(p int) (bool, string) {
		t.Helper()
		if proto == Wren {
			c, err := core.NewClient(core.ClientConfig{
				DC: 0, ClientIndex: 9000 + p, NumPartitions: cfg.NumPartitions,
				Network: cl.Network(), CoordinatorPartition: p,
				RequestTimeout: 5 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ro, detail, err := c.Health(p)
			if err != nil {
				t.Fatal(err)
			}
			return ro, detail
		}
		c, err := cure.NewClient(cure.ClientConfig{
			DC: 0, ClientIndex: 9000 + p, NumDCs: 1, NumPartitions: cfg.NumPartitions,
			Network: cl.Network(), CoordinatorPartition: p,
			RequestTimeout: 5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ro, detail, err := c.Health(p)
		if err != nil {
			t.Fatal(err)
		}
		return ro, detail
	}
	if ro, _ := probe(0); ro {
		t.Fatal("health probe reports partition 0 read-only")
	}
	if ro, detail := probe(1); !ro || detail == "" {
		t.Fatalf("health probe missed the degradation: readOnly=%v detail=%q", ro, detail)
	}
}
