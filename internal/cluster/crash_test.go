package cluster

import (
	"fmt"
	"testing"
	"time"

	"wren/internal/replica"
	"wren/internal/replica/replicatest"
	"wren/internal/store/backend"
	"wren/internal/transport"
)

// These tests crash-torture the two durability gaps the transaction log
// closes (previously the top open items in ROADMAP.md), on the durable
// sst backend with fsync=always:
//
//   - a kill between the commit ACK and the apply pass must lose nothing:
//     the restarted cluster serves every acknowledged transaction from
//     its commit-record logs;
//   - a kill after local apply but before Replicate traffic lands must
//     not leave DCs durably diverged: the restarted origin re-sends the
//     tail above each peer's replication cursor and the DCs reconverge.
//
// Kill skips every shutdown courtesy (no final apply, no commit-list
// flush); with fsync=always each acknowledgement implies its records were
// fsynced before it was sent, so the reopened directory holds exactly
// what a SIGKILL would have left. (In-process, writes already handed to
// the OS survive a real SIGKILL too — what a process kill can lose, and
// what Kill therefore withholds, is the user-space shutdown work.)

// crashConfig is the shared deployment shape for the crash tests.
func crashConfig(proto Protocol, dcs int, dataDir string) Config {
	return Config{
		Protocol:      proto,
		NumDCs:        dcs,
		NumPartitions: 2,
		Server: replica.Config{
			StoreBackend: backend.SST,
			DataDir:      dataDir,
			FsyncPolicy:  "always",
			// Keep chains intact so Latest comparisons are deterministic.
			GCInterval: -1,
		},
	}
}

// The crash scenarios run from the TestLifecycleConformance matrix in
// lifecycle_conformance_test.go, which covers every protocol.

func testCrashBetweenAckAndApply(t *testing.T, proto Protocol, tear bool) {
	dataDir := t.TempDir()
	cfg := crashConfig(proto, 1, dataDir)

	want := map[string]string{}
	func() {
		cl, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer cl.Kill()
		// Hold the apply pass on both partitions behind an older prepare
		// that is never decided: every acknowledged commit stays on the
		// commit list, never reaching the engine — the exact ack-to-apply
		// window, as wide as a slow sibling transaction makes it in
		// production.
		for p := 0; p < cfg.NumPartitions; p++ {
			replicatest.HoldApply(t, cl.Network(), transport.ServerID(0, p))
		}
		client, err := cl.NewClient(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()

		for i := 0; i < 6; i++ {
			tx, err := client.Begin()
			if err != nil {
				t.Fatal(err)
			}
			// Two keys per transaction so most commits span both
			// partitions (multi-cohort 2PC) and recovery must keep them
			// atomic.
			k1, k2 := fmt.Sprintf("ack-a-%d", i), fmt.Sprintf("ack-b-%d", i)
			v1, v2 := fmt.Sprintf("v1-%d", i), fmt.Sprintf("v2-%d", i)
			if err := tx.Write(k1, []byte(v1)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Write(k2, []byte(v2)); err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Commit(); err != nil {
				t.Fatalf("commit %d: %v", i, err)
			}
			want[k1], want[k2] = v1, v2
		}

		// The gap must be real: nothing acknowledged has reached the
		// engine (the apply pass is held), so without the transaction
		// log this kill would lose every commit above.
		for k := range want {
			p := partitionOf(k, cfg.NumPartitions)
			var applied bool
			if proto == Wren {
				applied = cl.WrenServer(0, p).Store().Latest(k) != nil
			} else {
				applied = cl.CureServer(0, p).Store().Latest(k) != nil
			}
			if applied {
				t.Fatalf("precondition broken: %q already applied before the kill", k)
			}
		}
		// defer cl.Kill() is the crash.
	}()

	// Second life: every acknowledged transaction must come back through
	// txlog recovery (replay or re-driven outcome). The held prepare comes
	// back too, as a recovered prepare, which holds nothing.
	cl := restartAfterCrash(t, cfg, dataDir, tear)
	defer cl.Close()
	requireReadable(t, cl, want)
}

func testCrashBeforeReplicate(t *testing.T, proto Protocol, tear bool) {
	dataDir := t.TempDir()
	cfg := crashConfig(proto, 2, dataDir)

	want := map[string]string{}
	func() {
		cl, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer cl.Kill()
		// Cut the WAN first: Replicate traffic to DC1 queues on the dead
		// link and dies with the kill — the origin applies locally but the
		// remote DC never hears about it.
		cl.Network().Cut(0, 1)
		cl.Network().Cut(1, 0)

		client, err := cl.NewClient(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		var lastCT int64
		var lastKey string
		for i := 0; i < 5; i++ {
			tx, err := client.Begin()
			if err != nil {
				t.Fatal(err)
			}
			k, v := fmt.Sprintf("repl-%d", i), fmt.Sprintf("val-%d", i)
			if err := tx.Write(k, []byte(v)); err != nil {
				t.Fatal(err)
			}
			ct, err := tx.Commit()
			if err != nil {
				t.Fatalf("commit %d: %v", i, err)
			}
			want[k] = v
			lastCT, lastKey = int64(ct), k
		}
		// Wait until the last commit is APPLIED at its origin partition:
		// the kill then lands after local apply, before replication.
		p := partitionOf(lastKey, cfg.NumPartitions)
		deadline := time.Now().Add(10 * time.Second)
		for !appliedLocally(cl, proto, p, lastCT) {
			if time.Now().After(deadline) {
				t.Fatal("final commit never applied locally")
			}
			time.Sleep(2 * time.Millisecond)
		}
		// The remote DC must not have the data (the link is down).
		for k := range want {
			rp := partitionOf(k, cfg.NumPartitions)
			var leaked bool
			if proto == Wren {
				leaked = cl.WrenServer(1, rp).Store().Latest(k) != nil
			} else {
				leaked = cl.CureServer(1, rp).Store().Latest(k) != nil
			}
			if leaked {
				t.Fatalf("precondition broken: %q reached DC1 despite the partition", k)
			}
		}
	}()

	// Second life: the healed cluster must reconverge from the persisted
	// replication cursors — DC1 receives the re-sent tail.
	cl := restartAfterCrash(t, cfg, dataDir, tear)
	defer cl.Close()
	deadline := time.Now().Add(15 * time.Second)
	for {
		diverged := ""
		for k, v := range want {
			p := partitionOf(k, cfg.NumPartitions)
			for dc := 0; dc < 2; dc++ {
				var got string
				if proto == Wren {
					if ver := cl.WrenServer(dc, p).Store().Latest(k); ver != nil {
						got = string(ver.Value)
					}
				} else {
					if ver := cl.CureServer(dc, p).Store().Latest(k); ver != nil {
						got = string(ver.Value)
					}
				}
				if got != v {
					diverged = fmt.Sprintf("dc%d key %q = %q, want %q", dc, k, got, v)
				}
			}
		}
		if diverged == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("DCs did not reconverge after the kill: %s", diverged)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func appliedLocally(cl *Cluster, proto Protocol, p int, ct int64) bool {
	if proto == Wren {
		return int64(cl.WrenServer(0, p).LocalVersionClock()) >= ct
	}
	return int64(cl.CureServer(0, p).LocalVersionClock()) >= ct
}
