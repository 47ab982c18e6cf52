package cluster

import (
	"errors"
	"testing"
	"time"

	"wren/internal/session"
	"wren/internal/transport"
	"wren/internal/wire"
)

// onePhaseInDoubt commits key=val from a client of coordinator partition 0
// with key on partition 1, under a rule on the intra-DC links, and returns
// what the commit and its termination probes made of it.
func onePhaseInDoubt(t *testing.T, proto Protocol, rule transport.Rule) (*Cluster, error) {
	t.Helper()
	cfg := fastConfig(proto, 1, 2)
	cfg.RetryAttempts = 3
	cfg.RequestTimeout = 100 * time.Millisecond
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	c, err := cl.NewClient(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	tx, err := c.(sessionClient).BeginAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(keyOwnedBy("one-phase", 1, 2), []byte("v")); err != nil {
		t.Fatal(err)
	}
	cl.Network().SetDCRule(0, 0, rule)
	_, err = tx.Commit()
	cl.Network().ClearRules()
	return cl, err
}

// readKey reads key in a fresh transaction of a fresh client.
func readKey(t *testing.T, cl *Cluster, key string) string {
	t.Helper()
	c, err := cl.NewClient(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	got, err := tx.Read(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return string(got[key])
}

// TestOnePhaseLostVoteResolvedByCohort: a one-phase commit's vote is lost,
// so the coordinator never answers; the client's termination probe goes
// to the cohort, which decided, and returns its commit time, and the value
// reads back.
func TestOnePhaseLostVoteResolvedByCohort(t *testing.T) {
	for _, proto := range allProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			cl, err := onePhaseInDoubt(t, proto, transport.Rule{DropProb: 1, Kind: wire.KindPrepareResp})
			if err != nil {
				t.Fatalf("commit with its vote lost = %v, want the cohort's verdict", err)
			}
			key := keyOwnedBy("one-phase", 1, 2)
			for deadline := time.Now().Add(5 * time.Second); readKey(t, cl, key) != "v"; time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the commit the probe reported never became visible")
				}
			}
		})
	}
}

// TestOnePhaseLostPrepareFenced: a one-phase commit's PrepareReq is held
// past the client's probes; the cohort has not seen it, so the probe
// fences the id and the commit ends ErrAborted. The held copy arrives
// afterwards and is refused: the key never shows the value.
func TestOnePhaseLostPrepareFenced(t *testing.T) {
	for _, proto := range allProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			const held = time.Second
			cl, err := onePhaseInDoubt(t, proto, transport.Rule{Delay: held, Kind: wire.KindPrepareReq})
			if !errors.Is(err, session.ErrAborted) {
				t.Fatalf("commit with its PrepareReq held = %v, want ErrAborted", err)
			}
			time.Sleep(held + 200*time.Millisecond) // the held copy arrives
			if got := readKey(t, cl, keyOwnedBy("one-phase", 1, 2)); got != "" {
				t.Fatalf("the fenced transaction's write reads back as %q", got)
			}
		})
	}
}
