// Package backend selects and opens a storage engine by name. It is the
// single place that knows every concrete engine, so the protocol servers
// (core, cure) and every configuration layer above them can treat the
// backend as an opaque string validated and resolved here.
package backend

import (
	"fmt"

	"wren/internal/store"
	"wren/internal/store/sst"
)

// Backend names.
const (
	// Memory is the in-memory lock-striped engine (the default). State is
	// lost on restart.
	Memory = "memory"
	// SST is the one durable engine: the memtable+sorted-run engine. A log
	// covers only the active memtable, background flushes emit immutable
	// sorted runs that serve snapshot reads lock-free, and merge
	// compaction folds runs together.
	SST = "sst"
)

// Names lists every recognized backend, for flag help and sweeps.
var Names = []string{Memory, SST}

// Options describes the engine one partition server wants. Every engine
// opens store.DefaultShards lock stripes.
type Options struct {
	// Backend is Memory, SST, or "" (which selects Memory).
	Backend string
	// DataDir is the directory a durable backend writes under. Required
	// for SST; ignored by Memory. Each server must get its own directory.
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
	case SST:
		if dataDir == "" {
			return fmt.Errorf("backend %q requires a data directory", name)
		}
		return nil
	default:
		return fmt.Errorf("unknown store backend %q (want %q or %q)", name, Memory, SST)
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
	if opts.Backend == SST {
		return sst.Open(sst.Options{Dir: opts.DataDir})
	}
	return store.NewMemoryEngine(store.DefaultShards), nil
}
