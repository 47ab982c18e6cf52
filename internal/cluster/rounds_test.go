package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"wren/internal/core"
	"wren/internal/cure"
	"wren/internal/transport/chaos"
)

var allProtocols = []Protocol{Wren, Cure, HCure}

// openTxContexts returns how many transaction contexts the coordinator at
// (dc, partition) holds.
func openTxContexts(cl *Cluster, dc, partition int) int {
	return int(cl.servers[dc][partition].Obs().Value("ctx.open"))
}

// ctxExpired sums, over every server, the contexts the TTL sweep had to
// expire because nobody committed or released them.
func ctxExpired(cl *Cluster) uint64 { return cl.Sum("ctx.expired") }

// awaitOpenTxContexts polls, once a millisecond, until the coordinator
// holds exactly want contexts. The bound is counted in polls rather than
// on the wall clock, so that it stretches with everything else when the
// test binary is starved of CPU (the packages of `go test ./...` run in
// parallel) instead of failing a release that was merely scheduled late.
func awaitOpenTxContexts(t *testing.T, cl *Cluster, dc, partition, want int, within time.Duration) {
	t.Helper()
	for polls := 0; ; polls++ {
		got := openTxContexts(cl, dc, partition)
		if got == want {
			return
		}
		if polls >= int(within/time.Millisecond) {
			t.Fatalf("dc%d/p%d holds %d open transaction contexts after %v, want %d", dc, partition, got, within, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// readOnlyTx runs Begin, Read, Commit.
func readOnlyTx(t *testing.T, c Client, keys ...string) {
	t.Helper()
	tx, err := c.Begin()
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	if _, err := tx.Read(keys...); err != nil {
		t.Fatalf("read: %v", err)
	}
	if ct, err := tx.Commit(); err != nil || ct != 0 {
		t.Fatalf("read-only commit = (%v, %v), want (0, nil)", ct, err)
	}
}

// TestRoundsPerTransaction pins what a transaction costs in client rounds
// and client-class messages, the two deterministic counts the cost ledger
// leads with: a steady-state read-only transaction is Begin + Read — its
// Commit sends nothing and its context release rides the next Begin — and
// an update transaction is Begin + Read + Commit. It also pins that the
// piggybacked releases keep up: a coordinator never holds more than one
// context per live session, and the TTL sweep never has to expire one.
func TestRoundsPerTransaction(t *testing.T) {
	for _, proto := range allProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			cfg := fastConfig(proto, 1, 2)
			cfg.ClientPoolLinks = 1
			cl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			c, err := cl.NewClient(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			// One key per partition, so a read always crosses partitions.
			keys := []string{"rounds-a", "rounds-b"}
			for i := 0; partitionOf(keys[1], 2) == partitionOf(keys[0], 2); i++ {
				keys[1] = fmt.Sprintf("rounds-b%d", i)
			}

			// expect runs n transactions and checks what they cost in pooled
			// calls and client-class messages. A session held off the CPU for
			// longer than the release grace between two transactions pays one
			// explicit release for it, so a measurement that is off is retried:
			// a real extra round is off every time.
			expect := func(what string, n int, tx func(), perTxCalls, perTxMsgs uint64) {
				t.Helper()
				wantCalls, wantMsgs := uint64(n)*perTxCalls, uint64(n)*perTxMsgs
				var calls, msgs uint64
				for attempt := 0; attempt < 3; attempt++ {
					c0 := cl.ClientPool(0).Stats().Calls
					m0 := cl.Network().Obs().Value("net.msgs.client")
					for i := 0; i < n; i++ {
						tx()
					}
					calls = cl.ClientPool(0).Stats().Calls - c0
					msgs = cl.Network().Obs().Value("net.msgs.client") - m0
					if calls == wantCalls && msgs == wantMsgs {
						return
					}
					t.Logf("attempt %d: %d %s transactions cost %d calls and %d client messages", attempt, n, what, calls, msgs)
				}
				t.Errorf("%d %s transactions cost %d calls and %d client messages, want exactly %d and %d",
					n, what, calls, msgs, wantCalls, wantMsgs)
			}
			const n = 20
			readOnly := func() { readOnlyTx(t, c, keys...) }
			update := func() {
				tx, err := c.Begin()
				if err != nil {
					t.Fatalf("begin: %v", err)
				}
				if _, err := tx.Read(keys...); err != nil {
					t.Fatalf("read: %v", err)
				}
				if err := tx.Write(keys[0], []byte("v")); err != nil {
					t.Fatal(err)
				}
				if _, err := tx.Commit(); err != nil {
					t.Fatalf("commit: %v", err)
				}
			}

			readOnly() // steady state: the next Begin has a release to carry
			expect("read-only", n, readOnly, 2, 4)
			if got := openTxContexts(cl, 0, 0); got > 1 {
				t.Errorf("coordinator holds %d contexts for one session after %d read-only transactions, want at most 1", got, n)
			}

			update() // carries the last read-only transaction's release
			expect("update", n, update, 3, 6)
			if got := openTxContexts(cl, 0, 0); got != 0 {
				t.Errorf("coordinator holds %d contexts after the session's last commit, want 0", got)
			}
			if got := ctxExpired(cl); got != 0 {
				t.Errorf("the TTL sweep expired %d contexts, want 0", got)
			}
		})
	}
}

// TestContextReleaseInvariants covers every way a transaction that ended
// without a COMMIT round gives its coordinator context back when no Begin
// on the same coordinator follows to carry the release.
func TestContextReleaseInvariants(t *testing.T) {
	for _, proto := range allProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			cl, err := New(fastConfig(proto, 1, 2))
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			newClient := func() Client {
				c, err := cl.NewClient(0, 0)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}

			t.Run("idle session", func(t *testing.T) {
				c := newClient()
				defer c.Close()
				readOnlyTx(t, c, "k")
				// Grace, one round trip, and slack for the simulator's timers:
				// well inside 50 ms, with no further Begin.
				awaitOpenTxContexts(t, cl, 0, 0, 0, 50*time.Millisecond)
			})

			t.Run("abort", func(t *testing.T) {
				c := newClient()
				defer c.Close()
				tx, err := c.Begin()
				if err != nil {
					t.Fatal(err)
				}
				if err := tx.Write("k", []byte("dropped")); err != nil {
					t.Fatal(err)
				}
				if err := tx.Abort(); err != nil {
					t.Fatalf("abort: %v", err)
				}
				awaitOpenTxContexts(t, cl, 0, 0, 0, 50*time.Millisecond)
			})

			t.Run("next begin on another coordinator", func(t *testing.T) {
				c := newClient()
				defer c.Close()
				readOnlyTx(t, c, "k")
				tx, err := c.(sessionClient).BeginAt(1)
				if err != nil {
					t.Fatal(err)
				}
				// The Begin stopped the grace timer, so only its own explicit
				// release can have done this.
				awaitOpenTxContexts(t, cl, 0, 0, 0, 50*time.Millisecond)
				awaitOpenTxContexts(t, cl, 0, 1, 1, 0)
				if _, err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				awaitOpenTxContexts(t, cl, 0, 1, 0, 50*time.Millisecond)
			})

			t.Run("close with a finished transaction", func(t *testing.T) {
				c := newClient()
				readOnlyTx(t, c, "k")
				c.Close()
				awaitOpenTxContexts(t, cl, 0, 0, 0, 50*time.Millisecond)
			})

			t.Run("close with an open transaction", func(t *testing.T) {
				c := newClient()
				if _, err := c.Begin(); err != nil {
					t.Fatal(err)
				}
				c.Close()
				awaitOpenTxContexts(t, cl, 0, 0, 0, 50*time.Millisecond)
			})
		})
	}
}

// TestContextReleaseSurvivesBeginFailover delays the StartTxReq that
// carries a release past the request timeout. The Begin fails over to the
// next coordinator, and the release must still reach the old one — through
// exactly one explicit CommitReq, which the message count shows.
func TestContextReleaseSurvivesBeginFailover(t *testing.T) {
	for _, proto := range allProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			cfg := chaosConfig(proto, 1, 2)
			cfg.RequestTimeout = 100 * time.Millisecond
			cl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			c, err := cl.NewClient(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			readOnlyTx(t, c, "k")

			// Hold the piggybacking StartTxReq back for three timeouts; lift
			// the rule before the timeout so everything sent after it — the
			// explicit release, the second attempt — travels normally.
			const held = 300 * time.Millisecond
			m0 := cl.Network().Obs().Value("net.msgs.client")
			cl.Chaos().SetClientRule(0, chaos.Rule{Delay: held})
			ruleSet := time.Now()
			lift := time.AfterFunc(held/6, func() { cl.Chaos().SetClientRule(0, chaos.Rule{}) })
			defer lift.Stop()

			tx, err := c.Begin()
			if err != nil {
				t.Fatalf("begin with failover: %v", err)
			}
			if tx.Coordinator() != 1 {
				t.Fatalf("begin landed on coordinator %d, want the failover target 1", tx.Coordinator())
			}
			awaitOpenTxContexts(t, cl, 0, 0, 0, 50*time.Millisecond)
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}

			// The held StartTxReq now surfaces: its release finds nothing left
			// to delete, and it leaves behind the context of a transaction the
			// session never learned about — Begin's documented residue, which
			// only the TTL sweep can reclaim.
			time.Sleep(held - time.Since(ruleSet) + 50*time.Millisecond)
			awaitOpenTxContexts(t, cl, 0, 0, 1, 0)
			awaitOpenTxContexts(t, cl, 0, 1, 0, 50*time.Millisecond)
			// Held StartTxReq and its unclaimed response, one explicit release
			// and its response, the second attempt and its response, and the
			// release of the transaction begun on coordinator 1.
			if got := cl.Network().Obs().Value("net.msgs.client") - m0; got != 8 {
				t.Errorf("begin with failover cost %d client messages, want 8 (exactly one explicit release of the old context)", got)
			}
		})
	}
}

// TestTxReadOnExpiredContext expires a transaction's context under a short
// TTL and reads through it: the read must fail with the typed error, not
// report every key absent.
func TestTxReadOnExpiredContext(t *testing.T) {
	for _, proto := range allProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			cfg := fastConfig(proto, 1, 2)
			cfg.Server.TxContextTTL = 30 * time.Millisecond
			cfg.Server.GCInterval = 5 * time.Millisecond
			cl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			// A writer of its own: the reader must not find the key in its
			// session's write cache.
			w, err := cl.NewClient(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			commitKV(t, w, "expired-k", []byte("v"))
			w.Close()
			c, err := cl.NewClient(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			tx, err := c.Begin()
			if err != nil {
				t.Fatal(err)
			}
			awaitOpenTxContexts(t, cl, 0, 0, 0, time.Second)
			got, err := tx.Read("expired-k")
			if !errors.Is(err, core.ErrTxExpired) && !errors.Is(err, cure.ErrTxExpired) {
				t.Fatalf("read on an expired context = (%v, %v), want ErrTxExpired", got, err)
			}
			if err := tx.Abort(); err != nil {
				t.Fatalf("abort after expiry: %v", err)
			}
			if got := ctxExpired(cl); got != 1 {
				t.Errorf("TTL sweep expired %d contexts, want 1", got)
			}
		})
	}
}

// TestChaosReadOnlySessionsLeaveNoContext runs read-only sessions over
// client links that drop, duplicate and reorder frames — StartTxReqs and
// the releases they carry included. Faults can orphan a context (a
// duplicated StartTxReq opens a transaction nobody learns about), and only
// the TTL sweep reclaims those; everything else must be released by the
// sessions themselves, so the sweep's count stays below the fault count
// and nothing survives the drain.
func TestChaosReadOnlySessionsLeaveNoContext(t *testing.T) {
	for _, proto := range allProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			cfg := chaosConfig(proto, 1, 2)
			cfg.RequestTimeout = 250 * time.Millisecond
			cfg.Server.TxContextTTL = 300 * time.Millisecond
			cfg.Server.GCInterval = 20 * time.Millisecond
			cl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			commitSession, err := cl.NewClient(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			commitKV(t, commitSession, "chaos-ro", []byte("v"))
			commitSession.Close()

			cl.Chaos().SetClientRule(0, chaos.Rule{DropProb: 0.02, DupProb: 0.02, ReorderProb: 0.05})
			const sessions, iters = 4, 40
			done := make(chan int, sessions)
			for s := 0; s < sessions; s++ {
				go func(s int) {
					finished := 0
					defer func() { done <- finished }()
					// Fixed and random coordinators: the random ones make the
					// next Begin land elsewhere half of the time.
					c, err := cl.NewClient(0, s%2-1)
					if err != nil {
						t.Error(err)
						return
					}
					defer c.Close()
					for i := 0; i < iters; i++ {
						tx, err := c.Begin()
						if err != nil {
							continue // retries exhausted under loss
						}
						if _, err := tx.Read("chaos-ro"); err != nil {
							_ = tx.Abort()
							continue
						}
						if _, err := tx.Commit(); err != nil {
							t.Errorf("read-only commit: %v", err)
							return
						}
						finished++
					}
				}(s)
			}
			total := 0
			for s := 0; s < sessions; s++ {
				total += <-done
			}
			if total < sessions*iters/2 {
				t.Fatalf("only %d of %d read-only transactions finished", total, sessions*iters)
			}
			faults := cl.Chaos().Obs().Snapshot()
			cl.Chaos().ClearRules()

			// Drain: the sessions are closed; what they could not release
			// themselves goes with the TTL sweep.
			for p := 0; p < 2; p++ {
				awaitOpenTxContexts(t, cl, 0, p, 0, cfg.Server.TxContextTTL+time.Second)
			}
			if expired, injected := ctxExpired(cl), faults.Get("chaos.dropped")+faults.Get("chaos.duplicated"); expired > injected {
				t.Errorf("TTL sweep expired %d contexts for %d injected faults over %d transactions: releases are not reaching the coordinators",
					expired, injected, total)
			}
		})
	}
}
