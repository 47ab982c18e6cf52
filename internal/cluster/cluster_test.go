package cluster

import (
	"fmt"
	"testing"
	"time"

	"wren/internal/replica"
)

func fastConfig(p Protocol, dcs, parts int) Config {
	return Config{
		Protocol:       p,
		NumDCs:         dcs,
		NumPartitions:  parts,
		InterDCLatency: 3 * time.Millisecond,
		Server: replica.Config{
			ApplyInterval:  time.Millisecond,
			GossipInterval: time.Millisecond,
			GCInterval:     -1,
		},
		RequestTimeout: 5 * time.Second,
	}
}

func TestClusterLifecycleAllProtocols(t *testing.T) {
	for _, proto := range []Protocol{Wren, Cure, HCure} {
		t.Run(proto.String(), func(t *testing.T) {
			cl, err := New(fastConfig(proto, 2, 2))
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			c, err := cl.NewClient(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			tx, err := c.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Write("k", []byte("v")); err != nil {
				t.Fatal(err)
			}
			ct, err := tx.Commit()
			if err != nil {
				t.Fatal(err)
			}
			if ct == 0 {
				t.Fatal("commit timestamp should be nonzero for a write tx")
			}

			// Read back (may be served from cache in Wren, or block
			// briefly in Cure).
			tx2, err := c.Begin()
			if err != nil {
				t.Fatal(err)
			}
			got, err := tx2.Read("k")
			if err != nil {
				t.Fatal(err)
			}
			if string(got["k"]) != "v" {
				t.Fatalf("read back %q", got["k"])
			}
			if _, err := tx2.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := New(Config{Protocol: Wren, NumDCs: 0, NumPartitions: 1}); err == nil {
		t.Error("zero DCs should be rejected")
	}
	if _, err := New(Config{Protocol: Protocol(99), NumDCs: 1, NumPartitions: 1}); err == nil {
		t.Error("unknown protocol should be rejected")
	}
	cl, err := New(fastConfig(Wren, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.NewClient(5, 0); err == nil {
		t.Error("out-of-range DC should be rejected")
	}
}

func TestClusterCloseIdempotent(t *testing.T) {
	cl, err := New(fastConfig(Wren, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	cl.Close()
	if _, err := cl.NewClient(0, 0); err == nil {
		t.Error("NewClient after Close should fail")
	}
}

func TestVisibilityProbesAdvance(t *testing.T) {
	for _, proto := range []Protocol{Wren, Cure} {
		t.Run(proto.String(), func(t *testing.T) {
			cl, err := New(fastConfig(proto, 2, 2))
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			c, err := cl.NewClient(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			tx, err := c.Begin()
			if err != nil {
				t.Fatal(err)
			}
			key := "probe"
			_ = tx.Write(key, []byte("v"))
			ct, err := tx.Commit()
			if err != nil {
				t.Fatal(err)
			}
			p := partitionOf(key, 2)
			deadline := time.Now().Add(5 * time.Second)
			for !cl.LocalUpdateVisible(0, p, ct) {
				if time.Now().After(deadline) {
					t.Fatal("local visibility never reached")
				}
				time.Sleep(time.Millisecond)
			}
			for !cl.RemoteUpdateVisible(1, p, 0, ct) {
				if time.Now().After(deadline) {
					t.Fatal("remote visibility never reached")
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

func TestCommittedTxCount(t *testing.T) {
	cl, err := New(fastConfig(Wren, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c, err := cl.NewClient(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		_ = tx.Write(fmt.Sprintf("k%d", i), []byte("v"))
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if got := cl.Sum("tx.committed"); got != 5 {
		t.Fatalf("Sum(tx.committed) = %d, want 5", got)
	}
}

func TestProtocolString(t *testing.T) {
	if Wren.String() != "Wren" || Cure.String() != "Cure" || HCure.String() != "H-Cure" {
		t.Error("protocol names wrong")
	}
	if Protocol(0).String() != "Protocol(0)" {
		t.Error("unknown protocol format wrong")
	}
}
