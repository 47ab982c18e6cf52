package replica

import (
	"os"
	"strings"
	"testing"
	"time"

	"wren/internal/store"
	"wren/internal/store/backend"
	"wren/internal/transport"
)

func TestConfigFillDefaultsAndValidate(t *testing.T) {
	net := transport.NewMemory(nil)
	defer net.Close()
	dir := t.TempDir()
	cases := []struct {
		name string
		edit func(*Config)
		want string // substring of the error; "" means valid
	}{
		{"zero knobs", func(*Config) {}, ""},
		{"durable backend with a directory", func(c *Config) { c.StoreBackend, c.DataDir = backend.SST, dir }, ""},
		{"no DCs", func(c *Config) { c.NumDCs = 0 }, "invalid topology 0x2"},
		{"no partitions", func(c *Config) { c.NumPartitions = -1 }, "invalid topology 2x-1"},
		{"DC out of range", func(c *Config) { c.DC = 2 }, "DC 2 out of range [0,2)"},
		{"negative DC", func(c *Config) { c.DC = -1 }, "DC -1 out of range"},
		{"partition out of range", func(c *Config) { c.Partition = 2 }, "partition 2 out of range [0,2)"},
		{"nil network", func(c *Config) { c.Network = nil }, "network is required"},
		{"negative apply interval", func(c *Config) { c.ApplyInterval = -time.Millisecond }, "negative ApplyInterval"},
		{"negative gossip interval", func(c *Config) { c.GossipInterval = -time.Millisecond }, "negative GossipInterval"},
		{"negative context TTL", func(c *Config) { c.TxContextTTL = -time.Second }, "negative TxContextTTL"},
		{"negative admission cap", func(c *Config) { c.MaxInflightPerConn = -1 }, "negative MaxInflightPerConn"},
		{"unknown backend", func(c *Config) { c.StoreBackend = "rocksdb" }, `unknown store backend "rocksdb"`},
		{"wal without a directory", func(c *Config) { c.StoreBackend = backend.WAL }, "requires a data directory"},
		{"sst without a directory", func(c *Config) { c.StoreBackend = backend.SST }, "requires a data directory"},
		{"unknown fsync policy", func(c *Config) {
			c.StoreBackend, c.DataDir, c.FsyncPolicy = backend.WAL, dir, "sometimes"
		}, `unknown fsync policy "sometimes"`},
		{"mistyped fsync policy on memory", func(c *Config) { c.FsyncPolicy = "alwayz" }, `unknown fsync policy "alwayz"`},
		{"widest topology", func(c *Config) { c.NumDCs, c.NumPartitions = 256, 1<<16 }, ""},
		{"more DCs than a uint8 names", func(c *Config) { c.NumDCs = 257 }, "invalid topology 257x2"},
		{"more partitions than a uint16 names", func(c *Config) { c.NumPartitions = 1<<16 + 1 }, "invalid topology 2x65537"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{DC: 1, Partition: 1, NumDCs: 2, NumPartitions: 2, Network: net, GCInterval: -1}
			tc.edit(&cfg)
			cfg.FillDefaults()
			err := cfg.Validate("proto")
			if tc.want != "" {
				if err == nil || !strings.HasPrefix(err.Error(), "proto: ") || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("Validate = %v, want an error prefixed %q containing %q", err, "proto: ", tc.want)
				}
				return
			}
			if err != nil {
				t.Fatalf("Validate = %v, want nil", err)
			}
			// Zero knobs take the defaults; a set one (GC disabled) is kept.
			if cfg.ClockSource == nil || cfg.ApplyInterval != DefaultApplyInterval ||
				cfg.GossipInterval != DefaultGossipInterval || cfg.GCInterval != -1 ||
				cfg.TxContextTTL != DefaultTxContextTTL || cfg.RepairInterval != DefaultRepairInterval ||
				cfg.MaxInflightPerConn != DefaultMaxInflightPerConn {
				t.Fatalf("FillDefaults left %+v", cfg)
			}
		})
	}
}

// nopProtocol satisfies Protocol for a runtime that is opened and killed
// without serving: any hook New or Kill should not call panics on the nil
// interface.
type nopProtocol struct{ Protocol }

func (nopProtocol) OnStop(bool) {}

// TestServerOpensDefaultShards: the lock-stripe count is not configurable;
// every backend a server opens has store.DefaultShards stripes. Every
// server also runs a transaction log, and the memory backend's has no
// file: given a DataDir, a memory server writes nothing under it.
func TestServerOpensDefaultShards(t *testing.T) {
	net := transport.NewMemory(nil)
	defer net.Close()
	for _, name := range backend.Names {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{NumDCs: 1, NumPartitions: 1, Network: net, StoreBackend: name, DataDir: dir}
			cfg.FillDefaults()
			if err := cfg.Validate("proto"); err != nil {
				t.Fatal(err)
			}
			r, err := New("proto", cfg, nopProtocol{})
			if err != nil {
				t.Fatal(err)
			}
			if got := r.Store().NumShards(); got != store.DefaultShards {
				t.Fatalf("NumShards = %d, want %d", got, store.DefaultShards)
			}
			if r.TxLog() == nil {
				t.Fatal("TxLog() = nil: every backend runs the transaction lifecycle")
			}
			r.Kill()
			if name != backend.Memory {
				return
			}
			if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
				t.Fatalf("memory server left %d entries under its DataDir (err %v), want none", len(ents), err)
			}
		})
	}
}
