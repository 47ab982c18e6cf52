package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"wren/internal/hlc"
	"wren/internal/store/sst"
	"wren/internal/store/wal"
)

// These tests state the durability contract of the transaction log (see
// the txlog package comment) as counts and crashes: how many fsyncs an
// acknowledged commit pays and where, that the engine's logs are synced
// only by the release barrier, and that no log forgets a record the
// barrier has not covered.

// lifecycleTick mirrors replica.lifecycleInterval, the period of the
// release barrier and of the flush of an idle log's lazy waiters.
const lifecycleTick = time.Second

// engineSyncs reads a durable engine's log fsync counter from the
// server's registry.
func engineSyncs(t *testing.T, srv lifecycleServer) uint64 {
	t.Helper()
	switch e := srv.Store().(type) {
	case *wal.Engine:
		return srv.Obs().Value("wal.syncs")
	case *sst.Engine:
		return srv.Obs().Value("sst.syncs")
	default:
		t.Fatalf("engine %T has no fsync counter", e)
	}
	return 0
}

// awaitBarrier returns right after a release barrier ran on the server: the
// caller first dirties the engine, so the barrier's Engine.Sync shows up in
// the counter. What follows within a few tens of milliseconds is almost a
// whole lifecycle tick away from the next barrier.
func awaitBarrier(t *testing.T, srv lifecycleServer) {
	t.Helper()
	before := engineSyncs(t, srv)
	for deadline := time.Now().Add(5 * lifecycleTick); engineSyncs(t, srv) == before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no release barrier synced the engine")
		}
	}
}

// commitPair commits one transaction writing a key on each of the two
// partitions through the given session, returning its id and commit time.
func commitPair(t *testing.T, client Client, k0, k1, val string) (uint64, hlc.Timestamp) {
	t.Helper()
	tx, err := client.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{k0, k1} {
		if err := tx.Write(k, []byte(val)); err != nil {
			t.Fatal(err)
		}
	}
	ct, err := tx.Commit()
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	return tx.ID(), ct
}

func awaitApplied(t *testing.T, cl *Cluster, dc int, want map[string]string) {
	t.Helper()
	parts := cl.Config().NumPartitions
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		missing := ""
		for k, v := range want {
			ver := lifecycleServerAt(cl, dc, partitionOf(k, parts)).Store().Latest(k)
			if ver == nil || string(ver.Value) != v {
				missing = k
			}
		}
		if missing == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("key %q never applied in dc%d", missing, dc)
		}
	}
}

// dropEngineLogs truncates every engine shard log under dataDir to zero:
// the state a power loss leaves when nothing the engine wrote since it was
// opened had been fsynced. (The txlog lives one directory down and is not
// touched.) It is at least as harsh as any real crash — logs a barrier did
// sync are dropped too — and recovery must not care, because the
// transaction log still holds every record it has not compacted away.
func dropEngineLogs(t *testing.T, dataDir string) {
	t.Helper()
	logs, err := filepath.Glob(filepath.Join(dataDir, "dc*-p*", "*.log"))
	if err != nil || len(logs) == 0 {
		t.Fatalf("no engine logs under %s (err=%v)", dataDir, err)
	}
	for _, path := range logs {
		if err := os.Truncate(path, 0); err != nil {
			t.Fatal(err)
		}
	}
}

func requireReadable(t *testing.T, cl *Cluster, want map[string]string) {
	t.Helper()
	client, err := cl.NewClient(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		tx, err := client.Begin()
		if err != nil {
			t.Fatal(err)
		}
		got, err := tx.Read(keys...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		missing := ""
		for k, v := range want {
			if string(got[k]) != v {
				missing = fmt.Sprintf("key %q = %q, want %q", k, got[k], v)
			}
		}
		if missing == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("acknowledged writes lost: %s", missing)
		}
	}
}

// TestFsyncsPerCommit is ROADMAP's "fsyncs per acked commit" as a gate: one
// session, N serial two-partition commits under fsync=always. The
// transaction logs of both partitions together pay at most two fsyncs per
// commit (the remote cohort's PREPARE, the coordinator's decision; the
// COMMIT records ride on the next transaction's syncs) plus what the
// lifecycle tick flushes, and the engine's logs pay none: the only window
// in which they may be synced is the release barrier.
func TestFsyncsPerCommit(t *testing.T) {
	const n = 20
	for _, backend := range []string{"wal", "sst"} {
		t.Run(backend, func(t *testing.T) {
			cfg := crashConfig(Wren, 1, t.TempDir(), backend)
			cl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			client, err := cl.NewClient(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			k0 := keyOwnedBy("fsyncs-a", 0, cfg.NumPartitions)
			k1 := keyOwnedBy("fsyncs-b", 1, cfg.NumPartitions)
			p0, p1 := lifecycleServerAt(cl, 0, 0), lifecycleServerAt(cl, 0, 1)
			counts := func() (txlog, engine uint64) {
				return p0.Obs().Value("txlog.syncs") + p1.Obs().Value("txlog.syncs"),
					engineSyncs(t, p0) + engineSyncs(t, p1)
			}
			commitPair(t, client, k0, k1, "warm-up")

			// A release barrier may land inside a window (one a second);
			// it cannot land inside three in a row, so one clean window
			// proves the apply path itself never syncs the engine.
			cleanWindow := false
			for attempt := 0; attempt < 3 && !cleanWindow; attempt++ {
				tl0, eng0 := counts()
				start := time.Now()
				var last string
				for i := 0; i < n; i++ {
					last = fmt.Sprintf("v%d-%d", attempt, i)
					commitPair(t, client, k0, k1, last)
				}
				awaitApplied(t, cl, 0, map[string]string{k0: last, k1: last})
				tl1, eng1 := counts()
				// Each lifecycle tick may add one flush per log.
				ticks := uint64(time.Since(start)/lifecycleTick) + 1
				if got, max := tl1-tl0, 2*n+2*ticks; got > max {
					t.Fatalf("%d txlog fsyncs for %d acked two-partition commits, want at most %d", got, n, max)
				}
				t.Logf("attempt %d: %d commits, %d txlog fsyncs, %d engine-log fsyncs", attempt, n, tl1-tl0, eng1-eng0)
				cleanWindow = eng1 == eng0
			}
			if !cleanWindow {
				t.Fatal("the engine's logs were fsynced in every window of applied commits: the apply path syncs them")
			}
			// The barrier does sync them — the counter is live.
			awaitBarrier(t, p0)
		})
	}
}

// testCrashAfterApplyBeforeEngineSync: acknowledged commits are applied to
// the engine, whose logs nothing has synced, and the machine dies. The
// engine comes back without them; the transaction log — which may only
// forget a record after a barrier covered its apply — replays every one.
func testCrashAfterApplyBeforeEngineSync(t *testing.T, proto Protocol, backend string) {
	dataDir := t.TempDir()
	cfg := crashConfig(proto, 1, dataDir, backend)
	want := map[string]string{}
	func() {
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Kill()
		client, err := cl.NewClient(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		for i := 0; i < 6; i++ {
			k0 := keyOwnedBy(fmt.Sprintf("tail-%s-%s-a%d", proto, backend, i), 0, cfg.NumPartitions)
			k1 := keyOwnedBy(fmt.Sprintf("tail-%s-%s-b%d", proto, backend, i), 1, cfg.NumPartitions)
			commitPair(t, client, k0, k1, fmt.Sprint("v", i))
			want[k0], want[k1] = fmt.Sprint("v", i), fmt.Sprint("v", i)
		}
		awaitApplied(t, cl, 0, want)
	}()
	dropEngineLogs(t, dataDir)

	cl, err := New(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer cl.Close()
	requireReadable(t, cl, want)
}

// testEngineSyncFails: the release barrier's Engine.Sync fails. Nothing may
// be released on the strength of it — the record must survive a compaction
// of the transaction log — the server goes read-only, and a restart whose
// engine lost the unsynced tail gets the transaction back from the log.
func testEngineSyncFails(t *testing.T, proto Protocol, backend string) {
	dataDir := t.TempDir()
	cfg := crashConfig(proto, 1, dataDir, backend)
	cfg.Server.RepairInterval = -1
	prefix := fmt.Sprintf("syncfail-%s-%s", proto, backend)
	k0, k1 := keyOwnedBy(prefix+"-a", 0, cfg.NumPartitions), keyOwnedBy(prefix+"-b", 1, cfg.NumPartitions)
	func() {
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Kill()
		client, err := cl.NewClient(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		srv := lifecycleServerAt(cl, 0, 1)
		retained := func(txID uint64) bool {
			for _, c := range srv.TxLog().Committed() {
				if c.TxID == txID {
					return true
				}
			}
			return false
		}

		// A healthy barrier releases: after it, compaction drops the record.
		released, _ := commitPair(t, client, k0, k1, "released")
		awaitApplied(t, cl, 0, map[string]string{k0: "released", k1: "released"})
		awaitBarrier(t, srv)
		// Right behind a barrier, so the next is a tick away: commit, let
		// it apply, and break the engine before any barrier can cover it.
		kept, _ := commitPair(t, client, k0, k1, "kept")
		awaitApplied(t, cl, 0, map[string]string{k0: "kept", k1: "kept"})
		srv.Store().(interface{ InjectFailure(error) }).InjectFailure(errors.New("injected engine sync failure"))
		if !srv.ReadOnly() {
			t.Fatal("server not read-only with a failed engine")
		}
		awaitBarrier(t, srv) // this one syncs, finds the engine unhealthy, and must release nothing
		time.Sleep(50 * time.Millisecond)
		srv.TxLog().Compact()
		if retained(released) {
			t.Fatal("a record covered by a healthy barrier survived compaction: MarkApplied never ran")
		}
		if !retained(kept) {
			t.Fatal("a record whose engine barrier failed left the transaction log")
		}
		if err := commitVia(t, client, map[string]string{k1: "refused"}); !isReadOnlyErr(err) {
			t.Fatalf("commit through a server with a failed engine: got %v, want read-only refusal", err)
		}
	}()
	dropEngineLogs(t, dataDir)

	cl, err := New(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer cl.Close()
	requireReadable(t, cl, map[string]string{k0: "kept", k1: "kept"})
}

// testLazyCommitAck: on an idle server a cohort's CommitAck does not buy
// its own fsync — it waits for a sync covering the COMMIT record, which the
// lifecycle tick provides — and still resolves the coordinator's decision
// well inside the re-drive age.
func testLazyCommitAck(t *testing.T, proto Protocol, backend string) {
	cfg := crashConfig(proto, 1, t.TempDir(), backend)
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	client, err := cl.NewClient(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	prefix := fmt.Sprintf("lazyack-%s-%s", proto, backend)
	k0, k1 := keyOwnedBy(prefix+"-a", 0, cfg.NumPartitions), keyOwnedBy(prefix+"-b", 1, cfg.NumPartitions)
	coord, cohort := lifecycleServerAt(cl, 0, 0), lifecycleServerAt(cl, 0, 1)

	before := cohort.Obs().Value("txlog.syncs")
	commitPair(t, client, k0, k1, "v")
	acked := time.Now()
	for len(coord.TxLog().CoordPending()) > 0 {
		if time.Since(acked) > 3*lifecycleTick {
			t.Fatalf("decision still unresolved %v after the client ack: the lazy CommitAck never came", time.Since(acked))
		}
		time.Sleep(time.Millisecond)
	}
	// The cohort synced its PREPARE before voting; the ack needs a second
	// sync, one that covers the COMMIT record appended after the decision.
	if got := cohort.Obs().Value("txlog.syncs"); got < before+2 {
		t.Fatalf("CommitAck arrived after %d cohort fsyncs: it preceded the sync of its COMMIT record", got-before)
	}
	if got := cohort.Obs().Value("txlog.syncs"); got > before+2 {
		t.Fatalf("cohort paid %d fsyncs for one idle commit, want 2 (PREPARE, then the tick's flush)", got-before)
	}
	if red := coord.TxLog().RedrivePending(0); len(red) != 0 {
		t.Fatalf("decisions left to re-drive: %+v", red)
	}
}

// TestReplicateAckFollowsBarrier: a ReplicateAck lets the ORIGIN's
// transaction log forget a batch, so the receiver may send it only after an
// engine barrier that covers the batch; and waiting for that barrier must
// not look like a stalled link to the origin's live-resync detector.
func TestReplicateAckFollowsBarrier(t *testing.T) {
	for _, backend := range []string{"wal", "sst"} {
		t.Run(backend, func(t *testing.T) {
			cfg := crashConfig(Wren, 2, t.TempDir(), backend)
			cfg.InterDCLatency = 3 * time.Millisecond
			cl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			client, err := cl.NewClient(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			key := keyOwnedBy("ackbarrier", 0, cfg.NumPartitions)
			origin, receiver := lifecycleServerAt(cl, 0, 0), lifecycleServerAt(cl, 1, 0)

			type sent struct {
				ct     hlc.Timestamp
				syncs0 uint64 // receiver's engine fsyncs before the commit existed
			}
			var batches []sent
			var head hlc.Timestamp
			var headSince time.Time
			var longest time.Duration
			check := func() {
				cursor := origin.TxLog().Cursor(1)
				syncs := engineSyncs(t, receiver) // read AFTER the cursor
				for len(batches) > 0 && batches[0].ct <= cursor {
					if syncs <= batches[0].syncs0 {
						t.Fatalf("cursor passed commit %v with no engine barrier at the receiver since before it was written", batches[0].ct)
					}
					batches = batches[1:]
				}
				now := time.Now()
				if tail := origin.TxLog().UnreplicatedTail(1); len(tail) == 0 {
					head = 0
				} else if tail[0].CT != head {
					head, headSince = tail[0].CT, now
				} else if d := now.Sub(headSince); d > longest {
					longest = d
				}
			}
			// Long enough for the stall detector to trip, if anything would.
			var last string
			for start, i := time.Now(), 0; time.Since(start) < 4500*time.Millisecond; i++ {
				syncs0 := engineSyncs(t, receiver)
				last = fmt.Sprint("v", i)
				tx, err := client.Begin()
				if err != nil {
					t.Fatal(err)
				}
				if err := tx.Write(key, []byte(last)); err != nil {
					t.Fatal(err)
				}
				ct, err := tx.Commit()
				if err != nil {
					t.Fatal(err)
				}
				batches = append(batches, sent{ct, syncs0})
				for wait := time.Now(); time.Since(wait) < 40*time.Millisecond; time.Sleep(5 * time.Millisecond) {
					check()
				}
			}
			for deadline := time.Now().Add(5 * lifecycleTick); len(batches) > 0; time.Sleep(5 * time.Millisecond) {
				check()
				if time.Now().After(deadline) {
					t.Fatalf("%d commits never acknowledged by the receiver", len(batches))
				}
			}
			// Live resync fires when the tail's head survives
			// liveResyncStallTicks (3) lifecycle ticks; the barrier's
			// latency must stay well under that.
			if longest > 2*lifecycleTick {
				t.Fatalf("the oldest unacknowledged commit waited %v: barrier latency reads as a stall", longest)
			}
			awaitApplied(t, cl, 1, map[string]string{key: last})
		})
	}
}
