package cluster

import (
	"errors"
	"testing"

	"wren/internal/session"
	"wren/internal/wire"
)

// TestOversizedWriteRefused writes a 5 MiB value and a 5 MiB key, both
// above the wire's field bound, which no server could decode: Write and
// Delete must refuse them with session.ErrTooLarge before anything is
// sent, and the same session's next transaction must commit and read back.
func TestOversizedWriteRefused(t *testing.T) {
	for _, proto := range allProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			cl, err := New(fastConfig(proto, 1, 2))
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			c, err := cl.NewClient(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			big := make([]byte, 5<<20)
			tx, err := c.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Write("k", big); !errors.Is(err, session.ErrTooLarge) {
				t.Fatalf("Write of a %d-byte value: %v, want ErrTooLarge", len(big), err)
			}
			if err := tx.Delete(string(big)); !errors.Is(err, session.ErrTooLarge) {
				t.Fatalf("Delete of a %d-byte key: %v, want ErrTooLarge", len(big), err)
			}
			if err := tx.Write("k", big[:wire.MaxFieldLen]); err != nil {
				t.Fatalf("Write of a value at the bound: %v", err)
			}
			if _, err := tx.Commit(); err != nil {
				t.Fatalf("commit with a value at the bound: %v", err)
			}

			tx, err = c.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Write("k", []byte("v")); err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Commit(); err != nil {
				t.Fatalf("the session's next transaction: %v", err)
			}
			tx, err = c.Begin()
			if err != nil {
				t.Fatal(err)
			}
			got, err := tx.Read("k")
			if err != nil {
				t.Fatal(err)
			}
			if string(got["k"]) != "v" {
				t.Fatalf("read back %q, want %q", got["k"], "v")
			}
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
