package cluster

import (
	"testing"
	"time"

	"wren/internal/replica"
	"wren/internal/sharding"
)

// TestDeleteEndToEnd exercises deletion through every protocol: a deleted
// key reads as absent in the writer's session immediately, in the writer's
// DC once the tombstone is stable, and in remote DCs once it replicates —
// and the tombstone hides the older live version rather than exposing it.
func TestDeleteEndToEnd(t *testing.T) {
	for _, proto := range []Protocol{Wren, Cure, HCure} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			cl, err := New(Config{
				Protocol:       proto,
				NumDCs:         2,
				NumPartitions:  2,
				InterDCLatency: time.Millisecond,
				Server:         replica.Config{GCInterval: 50 * time.Millisecond},
			})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer cl.Close()

			local, err := cl.NewClient(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer local.Close()
			remote, err := cl.NewClient(1, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer remote.Close()

			const key = "doomed"
			tx, err := local.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Write(key, []byte("alive")); err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}

			// The value must reach the remote DC before we delete it, so
			// the tombstone has something to hide.
			waitForValue(t, remote, key, "alive")

			// Delete — and read-your-delete within the same transaction.
			tx, err = local.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Delete(key); err != nil {
				t.Fatal(err)
			}
			if got, err := tx.Read(key); err != nil {
				t.Fatal(err)
			} else if _, present := got[key]; present {
				t.Fatalf("key visible inside its own deleting transaction: %q", got[key])
			}
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}

			// Session causality: the deleting session must never see the
			// key again (Wren: write cache; Cure: dependency vector).
			tx, err = local.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if got, err := tx.Read(key); err != nil {
				t.Fatal(err)
			} else if _, present := got[key]; present {
				t.Fatalf("deleting session still reads %q after commit", got[key])
			}
			_ = tx.Abort()

			// Remote DC: the tombstone replicates and the key disappears.
			waitForAbsent(t, remote, key)

			// GC: once the deletion is stable everywhere, the owning
			// partition drops the chain entirely.
			p := sharding.PartitionOf(key, 2)
			deadline := time.Now().Add(10 * time.Second)
			for {
				var versions int
				if proto == Wren {
					versions = cl.WrenServer(0, p).Store().VersionsOf(key)
				} else {
					versions = cl.CureServer(0, p).Store().VersionsOf(key)
				}
				if versions == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("tombstoned chain not GCed: %d versions remain", versions)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

func waitForValue(t *testing.T, c Client, key, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		got, err := tx.Read(key)
		if err != nil {
			t.Fatal(err)
		}
		_ = tx.Abort()
		if string(got[key]) == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("key %q never reached value %q (got %q)", key, want, got[key])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitForAbsent(t *testing.T, c Client, key string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		got, err := tx.Read(key)
		if err != nil {
			t.Fatal(err)
		}
		_ = tx.Abort()
		if _, present := got[key]; !present {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("key %q still visible as %q; tombstone never took effect", key, got[key])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
