package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"wren/internal/hlc"
	"wren/internal/replica"
	"wren/internal/session"
)

// TestVisibilityHops pins update visibility as a count of transactions, not
// as a time: with ΔR and ΔG frozen at an hour, the only things that can
// install a commit and move the stable times are the events themselves —
// the pass a CommitTx, a coordinator's decision, a replicated-in batch or a
// peer's Seen asks the apply goroutine for, and BiST's scalars on the
// transaction's own messages. A ticker back on the path shows up as "never
// visible", not as a slower run. Version GC stays on, as shipped.
//
// The hop chain each bound follows is in the README ("Update visibility:
// what it costs and its floor").

// hopsConfig is the frozen-ticker deployment of the hop tests. The
// simulated hop is a millisecond so that "by the n-th transaction" is
// decided by message order, not by how late a goroutine was scheduled.
func hopsConfig(proto Protocol, dcs, parts int) Config {
	return Config{
		Protocol:       proto,
		NumDCs:         dcs,
		NumPartitions:  parts,
		IntraDCLatency: time.Millisecond,
		InterDCLatency: 5 * time.Millisecond,
		Server:         replica.Config{ApplyInterval: time.Hour, GossipInterval: time.Hour},
		RequestTimeout: 10 * time.Second,
	}
}

// commitKeys writes val under every key in one transaction and returns its
// commit time; the return is the acknowledgement.
func commitKeys(t *testing.T, c Client, val string, keys ...string) hlc.Timestamp {
	t.Helper()
	tx, err := c.Begin()
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	for _, k := range keys {
		if err := tx.Write(k, []byte(val)); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	ct, err := tx.Commit()
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	return ct
}

// stragglers renders every partition's contribution to the stable times of
// the Wren server at (dc, p) and names the partitions holding them below
// want — the per-partition lag gauge, as a failure message.
func stragglers(cl *Cluster, dc, p int, want hlc.Timestamp) string {
	srv := cl.WrenServer(dc, p)
	reg := srv.Obs()
	lst, rst := srv.StableTimes()
	var b strings.Builder
	fmt.Fprintf(&b, "dc%d/p%d: lst=%v rst=%v, want %v covered; contributions:", dc, p, lst, rst, want)
	var behind []string
	for q := range cl.cfg.NumPartitions {
		local := hlc.Timestamp(reg.Value(fmt.Sprintf("stab.local.p%d", q)))
		remoteMin := hlc.Timestamp(reg.Value(fmt.Sprintf("stab.remote_min.p%d", q)))
		fmt.Fprintf(&b, "\n  partition %d: local=%v remoteMin=%v", q, local, remoteMin)
		if local < want {
			behind = append(behind, fmt.Sprintf("partition %d (local version clock %v behind)", q, want.Physical()-local.Physical()))
		} else if cl.cfg.NumDCs > 1 && remoteMin < want {
			behind = append(behind, fmt.Sprintf("partition %d (remote entries %v behind)", q, want.Physical()-remoteMin.Physical()))
		}
	}
	fmt.Fprintf(&b, "\n  straggler: %s", strings.Join(behind, ", "))
	return b.String()
}

// beginsUntilCovered runs read-only transactions over keys on c and returns
// the 1-based index of the first whose Begin returned a local snapshot time
// at or past ct, giving up after limit. The keys must not be ones the
// session wrote: those are served from its cache and reach no server.
func beginsUntilCovered(t *testing.T, c Client, ct hlc.Timestamp, limit int, keys ...string) int {
	t.Helper()
	for n := 1; n <= limit; n++ {
		tx, err := c.Begin()
		if err != nil {
			t.Fatalf("begin: %v", err)
		}
		lt := tx.(*session.Tx).Start().LST
		if _, err := tx.Read(keys...); err != nil {
			t.Fatalf("read: %v", err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatalf("read-only commit: %v", err)
		}
		if lt >= ct {
			return n
		}
	}
	return limit + 1
}

func TestVisibilityHops(t *testing.T) {
	t.Run("Wren", func(t *testing.T) {
		// (a) A two-partition commit: both partitions install it at their
		// CommitTx, and the first read-only transaction's SliceResp brings
		// the remote partition's clock back to the coordinator.
		t.Run("two-partitions", func(t *testing.T) {
			cl, err := New(hopsConfig(Wren, 1, 2))
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			c, err := cl.NewClient(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ct := commitKeys(t, c, "v", keyOwnedBy("hop", 0, 2), keyOwnedBy("hop", 1, 2))
			if n := beginsUntilCovered(t, c, ct, 2, keyOwnedBy("probe", 0, 2), keyOwnedBy("probe", 1, 2)); n > 2 {
				t.Fatalf("commit at %v not covered by the coordinator's Begin by the 2nd read-only transaction after the ack\n%s",
					ct, stragglers(cl, 0, 0, ct))
			}
		})

		// (b) and (d): the third partition takes no part in the write — it
		// learns of it from the Seen on a SliceReq (1st transaction), runs a
		// pass, reports its clock on the next SliceResp (2nd), and the 3rd
		// Begin is covered. Without the Seen rule it is never covered. With
		// skewed clocks the bound is the same: the HLC absorbed Seen.
		for _, tc := range []struct {
			name string
			skew time.Duration
		}{{"bystander-partition", 0}, {"bystander-partition-skewed", 2 * time.Millisecond}} {
			t.Run(tc.name, func(t *testing.T) {
				cfg := hopsConfig(Wren, 1, 3)
				cfg.ClockSkew, cfg.Seed = tc.skew, 7
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
				ct := commitKeys(t, c, "v", keyOwnedBy("hop", 1, 3))
				if n := beginsUntilCovered(t, c, ct, 3, keyOwnedBy("probe", 1, 3), keyOwnedBy("probe", 2, 3)); n > 3 {
					t.Fatalf("commit at %v not covered by the coordinator's Begin by the 3rd read-only transaction after the ack\n%s",
						ct, stragglers(cl, 0, 0, ct))
				}
			})
		}

		// (c) Remote: one WAN hop carries the batch, the receiving
		// partitions move both their remote entry and their local clock,
		// and the reader DC's own exchange does the rest.
		t.Run("remote-dc", func(t *testing.T) {
			cfg := hopsConfig(Wren, 2, 2)
			cl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			w, err := cl.NewClient(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			r, err := cl.NewClient(1, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			// The marker lands on both partitions: a partition of the origin
			// DC that wrote nothing would have only its ΔR heartbeat to say
			// so, and that is frozen (see the README on what stays
			// tick-bound).
			k0, k1 := keyOwnedBy("marker", 0, 2), keyOwnedBy("marker", 1, 2)
			ct := commitKeys(t, w, "seen", k0, k1)
			time.Sleep(2 * cfg.InterDCLatency)
			for n := 1; n <= 3; n++ {
				tx, err := r.Begin()
				if err != nil {
					t.Fatal(err)
				}
				got, err := tx.Read(k0, k1)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				if string(got[k0]) == "seen" && string(got[k1]) == "seen" {
					return
				}
				if len(got) == 1 {
					t.Fatalf("read-only transaction %d saw half of the marker transaction: %q", n, got)
				}
			}
			t.Fatalf("marker written in DC 0 at %v not returned in DC 1 by the 3rd read-only transaction, %v after the ack\n%s",
				ct, 2*cfg.InterDCLatency, stragglers(cl, 1, 0, ct.Next()))
		})
	})

	// (e) Cure and H-Cure keep their ticked vector gossip but gain the
	// event-driven apply: the commit is in the cohorts' engines one hop
	// after the decision.
	for _, proto := range []Protocol{Cure, HCure} {
		t.Run(proto.String(), func(t *testing.T) {
			cfg := hopsConfig(proto, 1, 2)
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
			k0, k1 := keyOwnedBy("hop", 0, 2), keyOwnedBy("hop", 1, 2)
			ct := commitKeys(t, c, "v", k0, k1)
			time.Sleep(2 * cfg.IntraDCLatency)
			for p, k := range []string{k0, k1} {
				if v := cl.CureServer(0, p).Store().Latest(k); v == nil {
					t.Errorf("commit at %v not in dc0/p%d's engine %v after the ack (local version clock %v)",
						ct, p, 2*cfg.IntraDCLatency, cl.CureServer(0, p).LocalVersionClock())
				}
			}
		})
	}
}
