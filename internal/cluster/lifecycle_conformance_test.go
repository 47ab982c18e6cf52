package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"wren/internal/core"
	"wren/internal/cure"
	"wren/internal/obs"
	"wren/internal/store"
	"wren/internal/txlog"
)

// TestLifecycleConformance runs every transaction-lifecycle scenario for
// every protocol on the durable sst backend. The scenarios exercise the
// shared replica runtime (internal/replica) end to end — crash-torture of
// the commit-record log, replication-cursor resend, health-driven
// read-only admission, the probation readmit path, and client-side
// commit failover — so a regression in the protocol-agnostic core, or in
// either protocol's wiring onto it, fails here under a name that says
// which protocol and lifecycle stage broke.
//
// Under "sst" a crash scenario restarts from the engine's files as the
// kill (or the scenario) left them. Every crash scenario runs again under
// "wal", where the crash also tears the record the engine was appending
// to its write-ahead log: the restart must cut the torn tail and still
// serve every acknowledged commit.
func TestLifecycleConformance(t *testing.T) {
	crashes := []struct {
		name string
		run  func(t *testing.T, proto Protocol, tear bool)
	}{
		// A kill between the commit ACK and the apply pass must lose
		// nothing: recovery replays the commit-record log.
		{"crash-between-ack-and-apply", testCrashBetweenAckAndApply},
		// A kill after local apply but before Replicate traffic lands
		// must reconverge from the persisted replication cursors.
		{"crash-before-replicate", testCrashBeforeReplicate},
		// The durability contract's release side (see
		// durability_contract_test.go): the engine's unsynced log tail may
		// die with the machine, and a failed engine barrier releases
		// nothing.
		{"crash-after-apply-before-engine-sync", testCrashAfterApplyBeforeEngineSync},
		{"engine-sync-fails", testEngineSyncFails},
	}
	scenarios := []struct {
		name string
		run  func(t *testing.T, proto Protocol)
	}{
		// A degraded transaction log sheds the server into read-only
		// admission: writes refused, reads still served.
		{"readonly-admission", testReadOnlyRefusal},
		// With automatic repair enabled, a degraded server exits
		// probation and readmits writes without a restart.
		{"probation-readmit", testProbationReadmit},
		// With client failover enabled, a commit refused by a degraded
		// coordinator lands through a healthy one instead.
		{"failover-commit", testFailoverCommit},
		// A CommitAck rides on a sync it does not pay for.
		{"lazy-commit-ack", testLazyCommitAck},
	}
	for _, proto := range []Protocol{Wren, Cure, HCure} {
		for _, tear := range []bool{false, true} {
			arm := "sst"
			if tear {
				arm = "wal"
			}
			for _, sc := range crashes {
				t.Run(fmt.Sprintf("%s/%s/%s", proto, arm, sc.name), func(t *testing.T) {
					sc.run(t, proto, tear)
				})
			}
		}
		for _, sc := range scenarios {
			t.Run(fmt.Sprintf("%s/sst/%s", proto, sc.name), func(t *testing.T) {
				sc.run(t, proto)
			})
		}
	}
}

// lifecycleServer is the per-server surface the degradation scenarios
// need; both *core.Server and *cure.Server satisfy it.
type lifecycleServer interface {
	Obs() *obs.Registry
	TxLog() *txlog.Log
	Store() store.Engine
	ReadOnly() bool
	Healthy() error
}

func lifecycleServerAt(cl *Cluster, dc, p int) lifecycleServer {
	if s := cl.WrenServer(dc, p); s != nil {
		return s
	}
	return cl.CureServer(dc, p)
}

// isReadOnlyErr matches either protocol's typed read-only refusal.
func isReadOnlyErr(err error) bool {
	return errors.Is(err, core.ErrReadOnly) || errors.Is(err, cure.ErrReadOnly)
}

// keyOwnedBy finds a key the given partition owns, with a prefix unique
// enough that parallel subtests never collide in a shared store.
func keyOwnedBy(prefix string, p, parts int) string {
	for i := 0; ; i++ {
		k := fmt.Sprintf("%s-%d", prefix, i)
		if partitionOf(k, parts) == p {
			return k
		}
	}
}

func commitVia(t *testing.T, client Client, kvs map[string]string) error {
	t.Helper()
	tx, err := client.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range kvs {
		if err := tx.Write(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	_, err = tx.Commit()
	return err
}

// testReadOnlyRefusal is the durable-backend core of the admission
// story (TestReadOnlyAdmission covers the wire health probe in depth):
// degrading one partition's transaction log refuses writes through it as
// coordinator and as 2PC cohort, while healthy partitions keep committing
// and reads keep flowing.
func testReadOnlyRefusal(t *testing.T, proto Protocol) {
	cfg := crashConfig(proto, 1, t.TempDir())
	cfg.Server.RepairInterval = -1 // pin the degradation: no automatic readmit
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	prefix := fmt.Sprintf("conform-ro-%s", proto)
	k0 := keyOwnedBy(prefix+"-a", 0, cfg.NumPartitions)
	k1 := keyOwnedBy(prefix+"-b", 1, cfg.NumPartitions)

	client0, err := cl.NewClient(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer client0.Close()
	client1, err := cl.NewClient(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer client1.Close()

	if err := commitVia(t, client0, map[string]string{k0: "v", k1: "v"}); err != nil {
		t.Fatalf("healthy commit failed: %v", err)
	}

	lifecycleServerAt(cl, 0, 1).TxLog().InjectFailure(errors.New("injected log failure"))
	if !lifecycleServerAt(cl, 0, 1).ReadOnly() || lifecycleServerAt(cl, 0, 0).ReadOnly() {
		t.Fatal("ReadOnly flags wrong after injection")
	}
	if cl.Healthy() == nil {
		t.Fatal("Cluster.Healthy must surface the injected failure")
	}

	// Refused through the degraded partition as COHORT (coordinator 0)...
	if err := commitVia(t, client0, map[string]string{k1: "w"}); !isReadOnlyErr(err) {
		t.Fatalf("cohort-degraded commit: got %v, want read-only refusal", err)
	}
	// ...and as COORDINATOR, even for a write set it does not own.
	if err := commitVia(t, client1, map[string]string{k0: "w"}); !isReadOnlyErr(err) {
		t.Fatalf("coordinator-degraded commit: got %v, want read-only refusal", err)
	}
	// Healthy partitions keep committing.
	if err := commitVia(t, client0, map[string]string{k0: "w2"}); err != nil {
		t.Fatalf("healthy-partition commit refused: %v", err)
	}
	// Reads — including of the degraded partition's keys — keep flowing.
	rtx, err := client0.Begin()
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
}

// testProbationReadmit proves the degraded-mode probation exit: with a
// short RepairInterval the runtime's lifecycle loop repairs the log
// (compaction rewrite + probe append) and readmits writes without a
// restart — the satellite behaviour layered on txlog.Repair.
func testProbationReadmit(t *testing.T, proto Protocol) {
	cfg := crashConfig(proto, 1, t.TempDir())
	// Retried on every lifecycle tick (1s cadence) once degraded.
	cfg.Server.RepairInterval = 50 * time.Millisecond
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	prefix := fmt.Sprintf("conform-probation-%s", proto)
	k1 := keyOwnedBy(prefix, 1, cfg.NumPartitions)
	client, err := cl.NewClient(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if err := commitVia(t, client, map[string]string{k1: "before"}); err != nil {
		t.Fatalf("healthy commit failed: %v", err)
	}

	srv := lifecycleServerAt(cl, 0, 1)
	srv.TxLog().InjectFailure(errors.New("injected log failure"))
	if !srv.ReadOnly() {
		t.Fatal("server not read-only after injection")
	}

	// The lifecycle loop must repair the log and readmit writes. The
	// injected error is synthetic — the log file underneath is intact —
	// so the compaction rewrite and probe append succeed on the first
	// attempt after the next tick.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if !srv.ReadOnly() {
			if err := commitVia(t, client, map[string]string{k1: "after"}); err == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never readmitted writes: ReadOnly=%v Healthy=%v",
				srv.ReadOnly(), srv.Healthy())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cl.Healthy(); err != nil {
		t.Fatalf("cluster still degraded after readmit: %v", err)
	}
	// The readmitted write is really there.
	rtx, err := client.Begin()
	if err != nil {
		t.Fatal(err)
	}
	got, err := rtx.Read(k1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rtx.Commit(); err != nil {
		t.Fatal(err)
	}
	if string(got[k1]) != "after" {
		t.Fatalf("post-readmit read = %q, want %q", got[k1], "after")
	}
}

// testFailoverCommit proves the client-side failover satellite: with
// ClientFailover enabled, a commit refused by a degraded coordinator is
// replayed once through a healthy partition and succeeds, carrying the
// session's causal state with it.
func testFailoverCommit(t *testing.T, proto Protocol) {
	cfg := crashConfig(proto, 1, t.TempDir())
	cfg.Server.RepairInterval = -1 // the failed coordinator must STAY failed
	cfg.ClientFailover = true
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	prefix := fmt.Sprintf("conform-failover-%s", proto)
	// Owned by partition 1 so the replayed 2PC avoids the degraded log.
	k1 := keyOwnedBy(prefix, 1, cfg.NumPartitions)
	client, err := cl.NewClient(0, 0) // collocated with the soon-degraded coordinator
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if err := commitVia(t, client, map[string]string{k1: "before"}); err != nil {
		t.Fatalf("healthy commit failed: %v", err)
	}

	// Degrade the COORDINATOR the session is collocated with.
	lifecycleServerAt(cl, 0, 0).TxLog().InjectFailure(errors.New("injected log failure"))
	if !lifecycleServerAt(cl, 0, 0).ReadOnly() {
		t.Fatal("coordinator not read-only after injection")
	}

	// The commit must land anyway: the session detects the read-only
	// refusal, probes for a healthy coordinator and replays there.
	tx, err := client.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(k1, []byte("after")); err != nil {
		t.Fatal(err)
	}
	ct, err := tx.Commit()
	if err != nil {
		t.Fatalf("failover commit refused: %v", err)
	}
	if ct == 0 {
		t.Fatal("failover commit returned a zero commit timestamp")
	}
	// The coordinator is still degraded — the commit went around it, not
	// through a silent repair.
	if !lifecycleServerAt(cl, 0, 0).ReadOnly() {
		t.Fatal("degraded coordinator unexpectedly readmitted writes")
	}

	// Read-your-writes through the same session sees the failed-over
	// commit (served from the session's causal state even before the
	// origin snapshot catches up).
	rtx, err := client.Begin()
	if err != nil {
		t.Fatal(err)
	}
	got, err := rtx.Read(k1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rtx.Commit(); err != nil {
		t.Fatal(err)
	}
	if string(got[k1]) != "after" {
		t.Fatalf("post-failover read = %q, want %q", got[k1], "after")
	}
}
