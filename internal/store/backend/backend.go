// Package backend selects and opens a storage engine by name. It is the
// single place that knows every concrete engine, so the protocol servers
// (core, cure) and every configuration layer above them can treat the
// backend as an opaque string validated and resolved here.
package backend

import (
	"fmt"

	"wren/internal/store"
	"wren/internal/store/sst"
	"wren/internal/store/wal"
)

// Backend names.
const (
	// Memory is the in-memory lock-striped engine (the default). State is
	// lost on restart.
	Memory = "memory"
	// WAL is the durable engine: the memory engine fronted by per-shard
	// append-only logs that are replayed on startup.
	WAL = "wal"
	// SST is the memtable+sorted-run engine: a WAL covers only the active
	// memtable, background flushes emit immutable sorted runs that serve
	// snapshot reads lock-free, and merge compaction folds runs together.
	SST = "sst"
)

// Names lists every recognized backend, for flag help and sweeps.
var Names = []string{Memory, WAL, SST}

// Options describes the engine one partition server wants. Every engine
// opens store.DefaultShards lock stripes; a durable engine reopened over
// an existing directory keeps the count it persisted.
type Options struct {
	// Backend is Memory, WAL, SST, or "" (which selects Memory).
	Backend string
	// DataDir is the directory a durable backend writes under. Required
	// for WAL and SST; ignored by Memory. Each server must get its own
	// directory.
	DataDir string
	// Fsync is accepted only as "" or "never", the one discipline every
	// engine follows: it never syncs its logs on its own, and its owner
	// calls Engine.Sync as the barrier (the txlog holds the fsync policy).
	// The field stays only because the benchmark's store probe still sets
	// it; it goes once that call drops it.
	Fsync string
}

// Validate checks a backend selection: recognized name, directory present
// when required.
func Validate(name, dataDir string) error {
	switch name {
	case "", Memory:
		return nil
	case WAL, SST:
		if dataDir == "" {
			return fmt.Errorf("backend %q requires a data directory", name)
		}
		return nil
	default:
		return fmt.Errorf("unknown store backend %q (want %q, %q or %q)", name, Memory, WAL, SST)
	}
}

// Open builds the engine described by opts.
func Open(opts Options) (store.Engine, error) {
	if err := Validate(opts.Backend, opts.DataDir); err != nil {
		return nil, err
	}
	if opts.Fsync != "" && opts.Fsync != "never" {
		return nil, fmt.Errorf("backend: fsync %q: engines never sync on their own (want \"\" or \"never\")", opts.Fsync)
	}
	switch opts.Backend {
	case WAL:
		return wal.Open(wal.Options{Dir: opts.DataDir})
	case SST:
		return sst.Open(sst.Options{Dir: opts.DataDir})
	default:
		return store.NewMemoryEngine(store.DefaultShards), nil
	}
}
