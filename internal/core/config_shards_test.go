package core

import (
	"testing"

	"wren/internal/store"
	"wren/internal/transport"
)

// TestStoreShardsValidation: the stripe count is no longer a server knob;
// a Wren server opens store.DefaultShards stripes.
func TestStoreShardsValidation(t *testing.T) {
	net := transport.NewMemory(transport.UniformLatency(0, 0), 0)
	defer net.Close()
	srv, err := NewServer(ServerConfig{DC: 0, Partition: 0, NumDCs: 1, NumPartitions: 1, Network: net})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Kill()
	if got := srv.Store().NumShards(); got != store.DefaultShards {
		t.Errorf("NumShards = %d, want default %d", got, store.DefaultShards)
	}
}
