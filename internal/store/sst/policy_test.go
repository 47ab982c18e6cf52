package sst_test

import (
	"testing"

	"wren/internal/store/backend"
)

// TestOpenRejectsBadPolicy: an sst engine is opened with a policy only
// through backend.Open, and it refuses any policy but the one discipline
// engines follow (never sync on their own) — an unknown name and "always"
// alike — while "" and "never" open the engine.
func TestOpenRejectsBadPolicy(t *testing.T) {
	for _, fsync := range []string{"sometimes", "always", "interval"} {
		if e, err := backend.Open(backend.Options{Backend: backend.SST, DataDir: t.TempDir(), Fsync: fsync}); err == nil {
			e.Close()
			t.Errorf("Open with fsync policy %q should fail", fsync)
		}
	}
	for _, fsync := range []string{"", "never"} {
		e, err := backend.Open(backend.Options{Backend: backend.SST, DataDir: t.TempDir(), Fsync: fsync})
		if err != nil {
			t.Fatalf("Open with fsync policy %q: %v", fsync, err)
		}
		if err := e.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}
}
