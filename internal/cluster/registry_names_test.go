package cluster

import (
	"slices"
	"testing"

	"wren/internal/core"
	"wren/internal/cure"
	"wren/internal/obs"
	"wren/internal/store/backend"
	"wren/internal/transport"
)

// TestRegistryNames pins what one server of each protocol registers on
// each backend (see package obs). A renamed counter fails here instead of
// silently changing what a report or internal/bench reads.
func TestRegistryNames(t *testing.T) {
	runtime := []string{"admission.shed", "ctx.expired", "ctx.open", "gc.keys_dropped", "gc.removed",
		"read.slices_served", "repl.tx_applied", "tx.committed", "tx.started", "txlog.syncs"}
	protocol := map[string][]string{
		"wren": {"stab.local.p0", "stab.local.p1", "stab.remote_min.p0", "stab.remote_min.p1"},
		"cure": {"read.blocked", "read.blocked_us"},
	}
	engine := map[string][]string{
		backend.Memory: nil,
		backend.WAL:    {"wal.compactions", "wal.recovered", "wal.syncs", "wal.truncated_shards"},
		backend.SST: {"sst.block_reads", "sst.bloom_skips", "sst.compaction_bytes", "sst.compactions",
			"sst.flushes", "sst.gc_pending", "sst.gc_visited", "sst.log_writes", "sst.records_checked",
			"sst.recovered", "sst.runs_loaded", "sst.syncs", "sst.truncated_logs"},
	}
	net := transport.NewMemory(nil)
	defer net.Close()
	for _, b := range backend.Names {
		for _, proto := range []string{"wren", "cure"} {
			t.Run(proto+"/"+b, func(t *testing.T) {
				cfg := core.ServerConfig{NumDCs: 1, NumPartitions: 2, Network: net, StoreBackend: b, DataDir: t.TempDir()}
				var srv interface {
					Obs() *obs.Registry
					Stop()
				}
				var err error
				if proto == "wren" {
					srv, err = core.NewServer(cfg)
				} else {
					srv, err = cure.NewServer(cfg)
				}
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Stop()
				var got []string
				for _, s := range srv.Obs().Snapshot() {
					got = append(got, s.Name)
				}
				want := slices.Concat(runtime, protocol[proto], engine[b])
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("registry names\n got %q\nwant %q", got, want)
				}
			})
		}
	}
}
