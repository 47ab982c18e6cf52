package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"wren/internal/core"
	"wren/internal/session"
	"wren/internal/store"
	"wren/internal/transport"
)

// chaosConfig is fastConfig plus a seed for the network's faults and a
// client retry budget sized for the short request timeouts these tests
// run with.
func chaosConfig(p Protocol, dcs, parts int) Config {
	cfg := fastConfig(p, dcs, parts)
	cfg.Seed = 42
	cfg.RetryAttempts = 5
	cfg.RetryBackoff = 2 * time.Millisecond
	return cfg
}

func storeOf(cl *Cluster, dc, p int) store.Engine {
	if cl.Config().Protocol == Wren {
		return cl.WrenServer(dc, p).Store()
	}
	return cl.CureServer(dc, p).Store()
}

// waitConverged polls until every DC's store holds an identical latest
// version for each key (same commit timestamp, transaction id and value).
// A non-nil expected value additionally pins what that version must hold —
// the acked write a client observed must be the one that replicated.
func waitConverged(t *testing.T, cl *Cluster, want map[string][]byte, timeout time.Duration) {
	t.Helper()
	cfg := cl.Config()
	deadline := time.Now().Add(timeout)
	var lastErr error
	for {
		lastErr = nil
		for key, val := range want {
			p := partitionOf(key, cfg.NumPartitions)
			ref := storeOf(cl, 0, p).Latest(key)
			if ref == nil {
				lastErr = fmt.Errorf("key %q: no version in dc0", key)
				break
			}
			if val != nil && !bytes.Equal(ref.Value, val) {
				lastErr = fmt.Errorf("key %q: dc0 holds %q, acked write was %q", key, ref.Value, val)
				break
			}
			for dc := 1; dc < cfg.NumDCs; dc++ {
				got := storeOf(cl, dc, p).Latest(key)
				if got == nil {
					lastErr = fmt.Errorf("key %q: missing in dc%d", key, dc)
					break
				}
				if got.UT != ref.UT || got.TxID != ref.TxID || !bytes.Equal(got.Value, ref.Value) {
					lastErr = fmt.Errorf("key %q: dc%d diverged (ut=%v tx=%d val=%q, dc0 ut=%v tx=%d val=%q)",
						key, dc, got.UT, got.TxID, got.Value, ref.UT, ref.TxID, ref.Value)
					break
				}
			}
			if lastErr != nil {
				break
			}
		}
		if lastErr == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("DCs did not converge: %v", lastErr)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// assertExactlyOnce checks that keys written exactly once exist as exactly
// one stored version in every DC — a duplicated replication frame or a
// re-driven commit would surface as a second version on the chain.
func assertExactlyOnce(t *testing.T, cl *Cluster, keys []string) {
	t.Helper()
	cfg := cl.Config()
	for _, key := range keys {
		p := partitionOf(key, cfg.NumPartitions)
		for dc := 0; dc < cfg.NumDCs; dc++ {
			if n := storeOf(cl, dc, p).VersionsOf(key); n != 1 {
				t.Errorf("key %q: dc%d stores %d versions, want exactly 1", key, dc, n)
			}
		}
	}
}

func commitKV(t *testing.T, c Client, key string, val []byte) {
	t.Helper()
	tx, err := c.Begin()
	if err != nil {
		t.Fatalf("begin for %q: %v", key, err)
	}
	if err := tx.Write(key, val); err != nil {
		t.Fatalf("write %q: %v", key, err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatalf("commit %q: %v", key, err)
	}
}

// TestChaosCutMidCommitConvergence cuts the inter-DC link in both
// directions mid-workload: commits in the origin DC must keep succeeding
// (2PC and acknowledgement are intra-DC), reads in the isolated DC must
// stay responsive (and nonblocking on Wren), and after healing every DC
// must converge to identical versions with no acked transaction lost or
// double-applied.
func TestChaosCutMidCommitConvergence(t *testing.T) {
	for _, proto := range []Protocol{Wren, Cure, HCure} {
		t.Run(proto.String(), func(t *testing.T) {
			cfg := chaosConfig(proto, 2, 2)
			cfg.ClientFailover = true
			cl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			ch := cl.Network()

			writer, err := cl.NewClient(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer writer.Close()

			want := make(map[string][]byte)
			var keys []string
			put := func(i int) {
				key := fmt.Sprintf("cut-%02d", i)
				val := []byte(fmt.Sprintf("v%02d", i))
				commitKV(t, writer, key, val)
				want[key] = val
				keys = append(keys, key)
			}
			for i := 0; i < 10; i++ {
				put(i)
			}

			// Partition the DCs in both directions mid-stream.
			ch.Cut(0, 1)
			ch.Cut(1, 0)

			// Acked writes must keep landing in the origin DC.
			for i := 10; i < 20; i++ {
				put(i)
			}

			// The isolated DC keeps serving reads from its stable snapshot.
			reader, err := cl.NewClient(1, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer reader.Close()
			rtx, err := reader.Begin()
			if err != nil {
				t.Fatalf("begin in isolated DC: %v", err)
			}
			if _, err := rtx.Read("cut-00"); err != nil {
				t.Fatalf("read in isolated DC: %v", err)
			}
			if proto == Wren && rtx.Blocked() != 0 {
				t.Fatalf("Wren read blocked %v during partition", rtx.Blocked())
			}
			if _, err := rtx.Commit(); err != nil {
				t.Fatalf("read-only commit in isolated DC: %v", err)
			}

			ch.HealAll()
			waitConverged(t, cl, want, 20*time.Second)
			assertExactlyOnce(t, cl, keys)
		})
	}
}

// TestChaosLossyClientLinks runs a write workload through client links
// that drop and duplicate frames. Sessions retry idempotent requests and
// resolve unacknowledged commits through termination probes; every
// acknowledged write must survive exactly once, and commits the client
// could not resolve must still leave all DCs in agreement.
func TestChaosLossyClientLinks(t *testing.T) {
	for _, proto := range []Protocol{Wren, Cure, HCure} {
		t.Run(proto.String(), func(t *testing.T) {
			cfg := chaosConfig(proto, 2, 2)
			cfg.ClientFailover = true
			cfg.RequestTimeout = 250 * time.Millisecond
			cl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			ch := cl.Network()

			c, err := cl.NewClient(0, -1)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			ch.SetClientRule(0, transport.Rule{DropProb: 0.05, DupProb: 0.05})

			want := make(map[string][]byte) // acked writes: value pinned
			var acked []string
			for i := 0; i < 40; i++ {
				key := fmt.Sprintf("loss-%02d", i)
				val := []byte(fmt.Sprintf("v%02d", i))
				tx, err := c.Begin()
				if err != nil {
					// Begin exhausted its retries; nothing was started.
					continue
				}
				// Exercise the read-retry path alongside the writes.
				if _, err := tx.Read("loss-00"); err != nil {
					_ = tx.Abort()
					continue
				}
				if err := tx.Write(key, val); err != nil {
					t.Fatalf("write %q: %v", key, err)
				}
				if _, err := tx.Commit(); err != nil {
					// In-doubt or aborted: the write may or may not exist.
					// Cross-DC agreement is still required, value pinning
					// is not.
					want[key] = nil
					continue
				}
				want[key] = val
				acked = append(acked, key)
			}
			if len(acked) < 20 {
				t.Fatalf("only %d/40 commits acknowledged; retry policy ineffective", len(acked))
			}

			ch.ClearRules()
			// Keys whose commit stayed unresolved may have no version at
			// all; converge only on keys at least one DC has applied.
			resolved := make(map[string][]byte)
			for key, val := range want {
				if val != nil {
					resolved[key] = val
					continue
				}
				p := partitionOf(key, cfg.NumPartitions)
				for dc := 0; dc < cfg.NumDCs; dc++ {
					if storeOf(cl, dc, p).Latest(key) != nil {
						resolved[key] = nil
						break
					}
				}
			}
			waitConverged(t, cl, resolved, 20*time.Second)
			assertExactlyOnce(t, cl, acked)
		})
	}
}

// TestChaosFenceDelayedCommit delays a CommitReq far beyond the request
// timeout. The client's termination probe must overtake the crawling
// commit, fence the transaction id, and return ErrAborted — after which
// the session safely re-runs the write. When the original CommitReq
// finally surfaces it must find the id fenced: the second write wins and
// exactly one version exists.
func TestChaosFenceDelayedCommit(t *testing.T) {
	cfg := chaosConfig(Wren, 1, 2)
	cfg.RetryAttempts = 8
	cfg.RetryBackoff = 5 * time.Millisecond
	cfg.RequestTimeout = 150 * time.Millisecond
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ch := cl.Network()

	c, err := cl.NewClient(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write("fence-k", []byte("v1")); err != nil {
		t.Fatal(err)
	}

	// Push the CommitReq two seconds out, then restore the link shortly
	// after: probes issued once the rule is cleared are scheduled at their
	// real send time and overtake the delayed commit in the link queue.
	const commitDelay = 2 * time.Second
	ch.SetClientRule(0, transport.Rule{Delay: commitDelay})
	ruleSet := time.Now()
	restore := time.AfterFunc(300*time.Millisecond, func() {
		ch.SetClientRule(0, transport.Rule{})
	})
	defer restore.Stop()

	if _, err := tx.Commit(); !errors.Is(err, core.ErrAborted) {
		t.Fatalf("delayed commit: want ErrAborted via termination probe, got %v", err)
	}

	// The fence licenses a re-run on the same session.
	commitKV(t, c, "fence-k", []byte("v2"))

	// Let the original CommitReq surface and be refused, then verify it
	// left no trace: the re-run's value stands, as the only version.
	time.Sleep(commitDelay - time.Since(ruleSet) + 300*time.Millisecond)
	p := partitionOf("fence-k", cfg.NumPartitions)
	v := storeOf(cl, 0, p).Latest("fence-k")
	if v == nil || !bytes.Equal(v.Value, []byte("v2")) {
		t.Fatalf("fenced commit resurfaced: latest=%v", v)
	}
	if n := storeOf(cl, 0, p).VersionsOf("fence-k"); n != 1 {
		t.Fatalf("fence-k has %d versions, want 1 (fenced commit must never apply)", n)
	}
}

// TestChaosInDoubtResolve cuts the client's DC mid-commit, so neither the
// CommitReq nor any termination probe is answered and Commit can only say
// ErrInDoubt. After the heal, Resolve on the same transaction must come
// back with a definite verdict, and a fresh session must read exactly what
// that verdict says.
func TestChaosInDoubtResolve(t *testing.T) {
	for _, proto := range []Protocol{Wren, Cure, HCure} {
		t.Run(proto.String(), func(t *testing.T) {
			cfg := chaosConfig(proto, 1, 2)
			cfg.RetryAttempts = 3
			cfg.RequestTimeout = 100 * time.Millisecond
			cl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			ch := cl.Network()

			c, err := cl.NewClient(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			tx, err := c.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Write("doubt-k", []byte("v")); err != nil {
				t.Fatal(err)
			}

			ch.Cut(0, 0)
			if _, err := tx.Commit(); !errors.Is(err, session.ErrInDoubt) || !errors.Is(err, session.ErrTimeout) {
				t.Fatalf("commit into a cut link = %v, want ErrInDoubt wrapping ErrTimeout", err)
			}
			ch.Heal(0, 0)

			ct, err := tx.(*session.Tx).Resolve()
			t.Logf("verdict after the heal: ct=%v err=%v", ct, err)
			committed := err == nil
			if !committed && !errors.Is(err, session.ErrAborted) {
				t.Fatalf("Resolve after the heal = %v, want a commit time or ErrAborted", err)
			}
			if committed && ct == 0 {
				t.Fatal("Resolve reported a commit without its timestamp")
			}

			// Absence proves nothing until the held traffic has drained, so
			// an aborted verdict is checked after a settle; a committed one
			// is awaited, since visibility trails the commit.
			fresh, err := cl.NewClient(0, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			if !committed {
				time.Sleep(300 * time.Millisecond)
			}
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
				rtx, err := fresh.Begin()
				if err != nil {
					t.Fatal(err)
				}
				got, err := rtx.Read("doubt-k")
				if err != nil {
					t.Fatal(err)
				}
				_, _ = rtx.Commit()
				_, visible := got["doubt-k"]
				if visible && !committed {
					t.Fatalf("Resolve said aborted, a fresh session reads %q", got["doubt-k"])
				}
				if visible == committed {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("Resolve said committed at %v, a fresh session never read the write", ct)
				}
			}
			if committed {
				assertExactlyOnce(t, cl, []string{"doubt-k"})
			}
		})
	}
}

// TestChaosReplicationLossResync drops half the replication frames
// between DCs, then clears the loss and relies on the stream's rewind
// (stalled-cursor detection) to re-ship the unconfirmed tail from the
// transaction log. Every backend runs it: the memory backend's txlog has
// no file but the same cursor, gap refusal and rewind.
func TestChaosReplicationLossResync(t *testing.T) {
	cfg := chaosConfig(Wren, 2, 2)
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ch := cl.Network()

	c, err := cl.NewClient(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ch.SetDCRule(0, 1, transport.Rule{DropProb: 0.5})

	want := make(map[string][]byte)
	var keys []string
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("rsync-%02d", i)
		val := []byte(fmt.Sprintf("v%02d", i))
		commitKV(t, c, key, val)
		want[key] = val
		keys = append(keys, key)
	}

	ch.ClearRules()
	// Stall detection needs rewindStallTicks lifecycle ticks (1s
	// cadence) before the tail is re-shipped; allow ample slack.
	waitConverged(t, cl, want, 25*time.Second)
	assertExactlyOnce(t, cl, keys)
}
