// Package archtest holds the design invariants that no behaviour test
// sees, stated over the module's syntax trees: the one fsync-before-ack
// point, the one go-back-N replication stream per peer DC, reads that
// never sort or copy to find a snapshot, one runtime, one codec, one
// metrics registry. TestArch parses the tree once and runs each rule as
// a subtest, gate/rule; TestFixtures holds every rule to the violations
// planted under testdata/<gate>/<rule>/<case>/, each a small tree whose
// lines marked "// want" are exactly where the rule must report. A rule
// that names declarations has a "missing" case, where they are gone, so
// a gate whose target moves fails instead of passing silently.
//
// Run it with go test ./internal/archtest.
package archtest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The import paths the rules resolve, under whatever name a file uses.
const (
	wire  = "wren/internal/wire"
	core  = "wren/internal/core"
	cure  = "wren/internal/cure"
	txlog = "wren/internal/txlog"
)

var rules = []struct {
	gate, name string
	rule       rule
}{
	// The transaction-lifecycle core, the coordinator shell and the
	// session runtime each live once (internal/replica, internal/session).
	// A cross-reference between protocol packages, a coordinator piece or
	// a forwarding accessor in one, or a termination probe, pushback,
	// backoff or error sentinel in a client is a copy coming back.
	{"duplication", "see-package-core", ban{
		scope: scope{pkgs: "internal/cure/... internal/replica/...", tests: true, text: true},
		text:  regexp.MustCompile(`see package core`),
		msg:   "duplicated lifecycle logic: move it into internal/replica"}},
	{"duplication", "see-package-cure", ban{
		scope: scope{pkgs: "internal/core/... internal/replica/...", tests: true, text: true},
		text:  regexp.MustCompile(`see package cure`),
		msg:   "duplicated lifecycle logic: move it into internal/replica"}},
	{"duplication", "coordinator-copy", ban{
		scope: scope{pkgs: "internal/core/... internal/cure/..."},
		text:  regexp.MustCompile(`"wren/internal/stripemap"|"wren/internal/fanin"|txContext|as in package core|mirroring package core|see core\.Server`),
		msg:   "duplicated coordinator logic: it lives in internal/replica"}},
	{"duplication", "server-accessors", declBan{
		scope: scope{pkgs: "internal/core/... internal/cure/..."},
		re:    regexp.MustCompile(`^func Server\.(ID|Obs|Store|EngineHealthy|Healthy|ReadOnly|TxLog|Start|Stop|Kill|VersionVector|LocalVersionClock|ShedRequests)$`),
		msg:   "duplicated coordinator logic: the runtime's accessor is promoted, not forwarded"}},
	{"duplication", "session-copy", ban{
		scope: scope{pkgs: "internal/core internal/cure internal/cluster"},
		notIn: []string{"internal/core.NewServer"},
		code: []matcher{lit(sel(wire, "TxStatusReq")), sel(wire, "BusyResp"), sel("errors", "New"),
			sel(core, "Err*"), sel(cure, "Err*")},
		msg: "duplicated session logic: move it into internal/session"}},
	{"duplication", "retry-delay", ban{
		scope: scope{pkgs: "internal/core internal/cure internal/cluster"},
		text:  regexp.MustCompile(`retryDelay`),
		msg:   "duplicated session logic: move it into internal/session"}},

	// A partition server's configuration is declared once, in
	// replica.Config; the stripe count is store.DefaultShards above the
	// engines.
	{"server-config", "server-config-type", declBan{
		scope: scope{pkgs: "internal/core/... internal/cure/...", tests: true},
		re:    regexp.MustCompile(`^type ServerConfig$`),
		msg:   "ServerConfig is an alias of replica.Config: declare server knobs there"}},
	{"server-config", "runtime-config", ban{
		scope: scope{pkgs: "./...", tests: true},
		text:  regexp.MustCompile(`runtimeConfig`),
		msg:   "runtimeConfig is gone: the protocol servers take replica.Config as is"}},
	{"server-config", "store-shards", ban{
		scope: scope{pkgs: "./... -internal/store/...", tests: true},
		text:  regexp.MustCompile(`\bStoreShards\b`),
		msg:   "StoreShards is gone: servers open store.DefaultShards stripes"}},

	// Every server runs the transaction log (the memory backend's has no
	// file), so the runtime has one lifecycle and one replication stream
	// per peer DC on every backend; a nil test on the log is a second
	// lifecycle coming back.
	{"lifecycle", "log-never-nil", nilField{
		scope: scope{pkgs: "internal/replica"},
		strct: "internal/replica.Runtime", typ: txlog + ".Log",
		msg: "the txlog is never nil; give the backend a file-less log instead"}},

	// A partition ships to each peer DC through one go-back-N stream:
	// install builds the ordinary batches, shipTo the rewind's and sends
	// them all, on the apply goroutine.
	{"replication-stream", "replicate-builders", ban{
		scope: scope{pkgs: "internal/replica"},
		notIn: []string{"internal/replica.Runtime.install", "internal/replica.Runtime.shipTo"},
		code:  []matcher{lit(sel(wire, "Replicate"))},
		msg:   "a Replicate built outside install and shipTo is a second replication send path"}},
	{"replication-stream", "no-stream-goroutine", ban{
		scope: scope{pkgs: "internal/replica"},
		in:    []string{"file:internal/replica.Runtime.shipTo"},
		code:  []matcher{goStmt},
		msg:   "the streams run on the apply goroutine, never on one of their own"}},

	// Each wire message states its layout once, in its codec method, which
	// Encode, EncodeInto, Size and Decode all run; an encodeTo/decodeFrom
	// pair or an encode/decode helper beside the coder primitives is a
	// second, mirrored copy of a layout. TestFrameFormatPinned holds the
	// bytes.
	{"one-codec", "no-encode-decode-pair", declBan{
		scope: scope{pkgs: "internal/wire"},
		re:    regexp.MustCompile(`(?i)^func (\w+\.)?(encode|decode)\w*$`),
		allow: []string{"internal/wire.Encode", "internal/wire.EncodeInto", "internal/wire.Decode"},
		msg:   "a layout coded outside its codec method: code the field there"}},

	// replica, txlog, sst, tcp and wire are split by concern (see the file
	// map in each package comment); a file over 600 lines is one growing
	// back.
	{"file-size", "600-lines", maxLines{
		scope: scope{pkgs: "internal/replica internal/txlog internal/store/sst internal/transport/tcp internal/wire"},
		max:   600,
		msg:   "split it by concern"}},

	// The transaction log is the one fsync-before-ack point: one group
	// commit, and engines never sync on their own (Put and PutBatch
	// append; the owner's Engine.Sync is the barrier).
	// TestFsyncsPerCommit gates the behaviour itself.
	{"durability-contract", "decision-batch", ban{
		scope: scope{pkgs: "./...", tests: true},
		text:  regexp.MustCompile(`DisableDecisionBatch`),
		msg:   "DisableDecisionBatch is gone: the txlog has one group commit"}},
	{"durability-contract", "put-path-sync", ban{
		scope: scope{pkgs: "internal/store/sst"},
		in:    []string{"internal/store/sst.Engine.Put", "internal/store/sst.Engine.PutBatch"},
		text:  regexp.MustCompile(`(?i)sync`),
		msg:   "the put path syncs; engines never sync on their own, the owner calls Sync"}},

	// The txlog owns the fsync vocabulary and the one fsync timer.
	{"sync-discipline", "engine-fsync-policy", ban{
		scope: scope{pkgs: "internal/store/...", tests: true},
		text:  regexp.MustCompile(`FsyncAlways|FsyncInterval|ParseFsync|fsyncLoop`),
		msg:   "engines have no fsync policy; the txlog owns the vocabulary"}},

	// Every durable-file operation under internal/store and internal/txlog
	// goes through fsutil.FS and fsutil.File, so crashfs can cut the power
	// after any of them; crashfs itself is a test double.
	{"file-op-seam", "os-file-ops", ban{
		scope: scope{pkgs: "internal/store/... internal/txlog/... -internal/store/fsutil/..."},
		code: []matcher{sel("os", "OpenFile", "Open", "Create", "Rename", "Remove", "RemoveAll",
			"ReadFile", "WriteFile", "ReadDir", "Truncate", "NewFile", "File")},
		msg: "a file operation outside internal/store/fsutil: go through fsutil.FS and fsutil.File"}},
	{"file-op-seam", "crashfs-test-only", ban{
		scope: scope{pkgs: "./..."},
		text:  regexp.MustCompile(regexp.QuoteMeta(`"wren/internal/store/fsutil/crashfs"`)),
		msg:   "crashfs imported outside a _test.go file: it is test-only"}},

	// Every sync of the group commit is one File.Datasync over records in
	// zero-filled space the file already owns; a File.Sync is only where a
	// whole file is made stable once. TestSyncsWithoutGrowth gates the size
	// not moving.
	{"txlog-sync-path", "one-datasync", ban{
		scope: scope{pkgs: "internal/txlog"},
		in:    []string{"internal/txlog.Log.syncTo"},
		code:  []matcher{call(name("Datasync"))},
		count: 1,
		msg:   "syncTo must make exactly one sync call, File.Datasync"}},
	{"txlog-sync-path", "no-sync-in-sync-to", ban{
		scope: scope{pkgs: "internal/txlog"},
		in:    []string{"internal/txlog.Log.syncTo"},
		code:  []matcher{call(name("Sync"))},
		msg:   "syncTo must make exactly one sync call, File.Datasync"}},
	{"txlog-sync-path", "file-sync", ban{
		scope: scope{pkgs: "internal/txlog"},
		notIn: []string{"internal/txlog.Log.recover", "internal/txlog.Log.compactFlushLocked"},
		code:  []matcher{call(method(name("*f", "*F"), "Sync"))},
		msg:   "File.Sync outside compaction and recovery"}},

	// Each record kind's bytes are spelled out once, by its encoder;
	// TestRecordFormatPinned holds them.
	{"txlog-one-codec", "record-kind-byte", ban{
		scope: scope{pkgs: "internal/txlog"},
		notIn: []string{"internal/txlog.encode*"},
		code:  []matcher{call(name("Byte"), name("rec*"))},
		msg:   "a record framed outside its encoder; call it"}},

	// benchmark/ is the benchmark of record; internal/bench and its
	// command regenerate the paper's figures and nothing else.
	{"one-bench-driver", "bench-json-root", rootFiles{
		glob: "BENCH_*.json",
		msg:  "BENCH_*.json at the repo root: numbers of record come from benchmark/run.sh"}},
	{"one-bench-driver", "report-schema", ban{
		scope: scope{pkgs: "internal/bench/... cmd/*-bench/...", tests: true, text: true},
		text:  regexp.MustCompile(`json:"`),
		msg:   "a report schema outside benchmark/: add a benchmark/ workload or a test instead"}},
	{"one-bench-driver", "disable-txlog", ban{
		scope: scope{pkgs: "./...", tests: true},
		text:  regexp.MustCompile(`DisableTxLog`),
		msg:   "DisableTxLog is gone: a durable backend always runs behind the txlog"}},
	{"one-bench-driver", "ablation", ban{
		scope: scope{pkgs: "internal/bench/... cmd/wren-bench/...", tests: true, text: true},
		text:  regexp.MustCompile(`Ablation`),
		msg:   "the ablations are gone: wren-bench regenerates the paper's figures only"}},
	{"one-bench-driver", "blocking-and-tree", ban{
		scope: scope{pkgs: "./...", tests: true},
		text:  regexp.MustCompile(`BlockingCommit|GossipTree|BeforeCommitReply|Aggregate`),
		msg:   "blocking commits and tree gossip are gone: Wren replies at once and broadcasts BiST"}},

	// Nothing walks the memtable in key order by copying or sorting its
	// keys (store.KeysFrom is each stripe's ordered index), and nothing on
	// the scan, flush, merge or streaming GC path sorts.
	// TestScanCostFollowsLimit and TestGCPassCostFollowsWrites gate the
	// costs.
	{"scan-sorts-nothing", "memtable-copies", ban{
		scope: scope{pkgs: "internal/store/...", tests: true},
		text:  regexp.MustCompile(`sortedMemKeys|keyHeap`),
		msg:   "memtable keys come off store.KeysFrom, not a heap or a sorted copy"}},
	{"scan-sorts-nothing", "no-sort", ban{
		scope: scope{pkgs: "internal/store internal/store/sst"},
		in: []string{"internal/store.Store.Scan", "file:internal/store.KeyIter",
			"internal/store/sst.Engine.Scan", "internal/store/sst.Engine.pinRuns",
			"internal/store/sst.Engine.writeRun", "internal/store/sst.gcPass.streamAll",
			"internal/store/sst.openCursors", "internal/store/sst.cursorSet.*"},
		code: []matcher{sel("sort", "*"), sel("slices", "Sort*")},
		msg:  "a sort on the scan, flush, merge or streaming GC path"}},

	// sst reads a run file one way, through its mapping under readMapped,
	// and fsutil.MapFile is the one place that maps. TestRunFaultIsAnError
	// gates the fault handling.
	{"read-in-place", "no-read-at", ban{
		scope: scope{pkgs: "internal/store/sst"},
		text:  regexp.MustCompile(`ReadAt`),
		msg:   "run files are read through their mapping, not ReadAt"}},
	{"read-in-place", "mmap-in-fsutil", ban{
		scope: scope{pkgs: "./... -internal/store/fsutil/...", tests: true},
		code:  []matcher{sel("syscall", "Mmap*")},
		msg:   "syscall.Mmap outside internal/store/fsutil: map files through fsutil.MapFile"}},

	// transport.Memory is the one in-process network: latency, DC cuts,
	// fault rules and codec delivery live there, over one link type. A
	// wrapper network, a second partition API or a pointer-cloning
	// duplicate is a second network coming back; so is any third
	// transport.Network beside Memory, tcp and the test-only SyncNet (the
	// benchmark's tracer wraps tcp).
	{"one-network", "no-second-network", ban{
		scope: scope{pkgs: "./...", tests: true},
		text:  regexp.MustCompile(`wren/internal/transport/chaos|SetDCLinkDown|cloneMessage|ChaosSeed`),
		msg:   "the fault injector is transport.Memory's rules and cuts: use them"}},
	{"one-network", "network-implementations", declBan{
		scope: scope{pkgs: "./...", tests: true},
		re:    regexp.MustCompile(`^func \w+\.Register$`),
		allow: []string{"internal/transport.Memory.Register", "internal/transport/tcp.Network.Register",
			"internal/replica/replicatest.SyncNet.Register", "benchmark.traceNet.Register"},
		msg: "a third transport.Network: give transport.Memory the behaviour instead"}},

	// A server's counters live in one obs registry and its lifecycle
	// events go to the obs event log. The four metrics types left are
	// views the frozen benchmark compiles against, with no state of their
	// own; TestRegistryNames pins the registry's names.
	{"one-metrics", "stderr-print", ban{
		scope: scope{pkgs: "internal/... -internal/obs/..."},
		code:  []matcher{call(sel("fmt", "Fprint*"), sel("os", "Stderr"))},
		msg:   "a stderr print under internal/: log an event through obs.Registry.Event"}},
	{"one-metrics", "metrics-types", declBan{
		scope: scope{pkgs: "./... -internal/obs/..."},
		re:    regexp.MustCompile(`^type \w*(Metrics|Stats|Counters)$`),
		allow: []string{"internal/core.Metrics", "internal/store/sst.Metrics", "internal/transport/tcp.Stats", "internal/transport/pool.Stats"},
		msg:   "a metrics type outside internal/obs: register its counters in an obs.Registry"}},
}

// TestArch holds the module to every rule.
func TestArch(t *testing.T) {
	tr, err := load("../..", ".git", ".bench_build", "internal/archtest")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		t.Run(r.gate+"/"+r.name, func(t *testing.T) {
			for _, f := range r.rule.check(tr) {
				t.Errorf("%s: %s", f.pos, f.msg)
			}
		})
	}
}

// TestFixtures runs each rule over its planted violations: it must report
// exactly the lines marked "// want", no more and no fewer.
func TestFixtures(t *testing.T) {
	for _, r := range rules {
		t.Run(r.gate+"/"+r.name, func(t *testing.T) {
			dir := filepath.Join("testdata", r.gate, r.name)
			cases, err := os.ReadDir(dir)
			if err != nil || len(cases) == 0 {
				t.Fatalf("no fixture under %s", dir)
			}
			if namesDecls(r.rule) && !slices.ContainsFunc(cases, func(e os.DirEntry) bool { return e.Name() == "missing" }) {
				t.Errorf("%s has no missing case: the rule names declarations", dir)
			}
			for _, c := range cases {
				tr, err := load(filepath.Join(dir, c.Name()))
				if err != nil {
					t.Fatal(err)
				}
				want, got := map[string]bool{}, map[string]string{}
				for _, f := range tr.files {
					for i, line := range strings.Split(string(f.src), "\n") {
						if strings.Contains(line, "// want") {
							want[fmt.Sprintf("%s:%d", f.path, i+1)] = true
						}
					}
				}
				for _, f := range r.rule.check(tr) {
					got[f.pos] = f.msg
					if !want[f.pos] {
						t.Errorf("%s: unexpected finding at %s: %s", c.Name(), f.pos, f.msg)
					}
				}
				if len(want) == 0 {
					t.Errorf("%s: no line marked // want", c.Name())
				}
				for pos := range want {
					if _, ok := got[pos]; !ok {
						t.Errorf("%s: not rejected at %s", c.Name(), pos)
					}
				}
			}
		})
	}
}

// TestEveryScopeMustMatch runs every rule on an empty tree: a rule whose
// files or declarations have all gone must fail, not pass.
func TestEveryScopeMustMatch(t *testing.T) {
	empty := &tree{}
	for _, r := range rules {
		if _, ok := r.rule.(rootFiles); ok {
			continue
		}
		if len(r.rule.check(empty)) == 0 {
			t.Errorf("%s/%s passes on an empty tree", r.gate, r.name)
		}
	}
}

func namesDecls(r rule) bool {
	switch r := r.(type) {
	case ban:
		return len(r.in)+len(r.notIn) > 0
	case nilField:
		return true
	case declBan:
		return len(r.allow) > 0
	}
	return false
}
