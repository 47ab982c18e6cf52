package main

import (
	"bufio"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"wren/internal/wire"
)

// metricDef declares one metric; BENCHMARK.json carries the same table and
// the smoke test fails when the two differ.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the median it may worsen
}

// endToEnd is what a user of the store sees. Every workload reports every
// one of them, none is ever 0, and each is taken over the whole measured
// window of an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"tx_per_s", "1/s", "higher", 0.25},
	{"tx_p50_ms", "ms", "lower", 0.25},
	{"visibility_p50_ms", "ms", "lower", 0.25},
	{"cpu_us_per_tx", "us", "lower", 0.25},
}

// tracedKinds are the message kinds whose transit and handling the traced
// pass reports, in protocol order.
var tracedKinds = []wire.Kind{
	wire.KindStartTxReq, wire.KindTxReadReq, wire.KindSliceReq, wire.KindSliceResp,
	wire.KindCommitReq, wire.KindPrepareReq, wire.KindPrepareResp, wire.KindCommitTx,
	wire.KindCommitAck, wire.KindReplicate, wire.KindReplicateAck, wire.KindHeartbeat,
	wire.KindStableBroadcast, wire.KindScanReq,
}

var (
	pooledKinds   = []wire.Kind{wire.KindStartTxReq, wire.KindTxReadReq, wire.KindCommitReq, wire.KindScanReq}
	tracedClasses = []wire.Class{wire.ClassClient, wire.ClassTransaction, wire.ClassReplication, wire.ClassStabilization}
	wireShapes    = []string{"TxReadResp20x8B", "CommitReq4x1KiB", "Replicate64"}
	probeBackends = []string{"memory", "sst"}
)

// perLayer lists the single-layer metrics of the traced pass, layer =
// package name. A metric that does not apply to a workload reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("us", "lower", "client.begin_us", "client.read_us", "client.commit_us", "client.scan_us",
		"client.unaccounted_us", "client.self_us_per_tx")
	add("ms", "lower", "client.tx_p99_ms", "client.read_p50_ms", "client.read_p99_ms", "client.commit_p50_ms", "client.commit_p99_ms", "client.scan_p50_ms")
	add("share", "lower", "client.failed_share")
	for _, k := range pooledKinds {
		add("us", "lower", "pool.call_us."+k.String())
	}
	add("count", "lower", "pool.calls_per_tx", "pool.timeouts", "pool.orphans")
	for _, c := range tracedClasses {
		add("count", "lower", "net.msgs_per_tx."+c.String())
	}
	for _, c := range tracedClasses {
		add("B", "lower", "net.bytes_per_tx."+c.String())
	}
	for _, k := range tracedKinds {
		add("us", "lower", "net.transit_us."+k.String())
	}
	add("us", "lower", "tcp.echo_rtt_us")
	add("count", "lower", "tcp.dials", "tcp.redials", "tcp.evictions", "tcp.overloaded")
	for _, s := range wireShapes {
		add("ns", "lower", "wire.encode_ns."+s, "wire.decode_ns."+s)
		add("count", "lower", "wire.decode_allocs."+s)
	}
	for _, k := range tracedKinds {
		add("us", "lower", "server.handle_us."+k.String())
	}
	add("share", "lower", "server.handle_busy_share")
	add("count", "lower", "core.slices_per_tx")
	add("count", "higher", "core.tx_started", "core.tx_committed")
	add("1/s", "higher", "core.repl_tx_applied_per_s")
	add("count", "higher", "core.gc_removed")
	add("count", "lower", "replica.shed")
	add("ms", "lower", "replica.visibility_p99_ms", "replica.lst_lag_ms", "replica.rst_lag_ms", "replica.recovery_ms")
	add("count", "lower", "replica.acked_lost")
	for _, b := range probeBackends {
		add("ns", "lower", "store.read_ns_per_key."+b, "store.put_ns_per_version."+b)
		add("count", "lower", "store.read_allocs_per_key."+b)
	}
	add("count", "lower", "sst.block_reads_per_key")
	add("count", "higher", "sst.bloom_skips_per_key")
	add("count", "lower", "sst.flushes", "sst.compactions", "sst.write_amp", "sst.runs", "sst.levels")
	add("B", "lower", "sst.resident_index_bytes")
	add("ratio", "lower", "store.disk_bytes_per_user_byte")
	add("us", "lower", "txlog.commit_sync_us", "txlog.commit_sync_us_x8")
	add("B", "lower", "txlog.bytes_per_commit")
	add("ns", "lower", "fanin.fold_ns_per_item", "hlc.now_ns")
	add("count", "lower", "process.allocs_per_tx")
	add("B", "lower", "process.alloc_bytes_per_tx", "process.write_bytes_per_tx")
	add("ms", "lower", "process.gc_pause_ms", "gen.late_ms_p99")
	add("MiB", "lower", "process.peak_rss_mb")
	add("%", "lower", "trace.overhead_pct")
	return out
}

// metricValue is one reported number; N is how many samples stand behind it
// (0 for counters and ratios).
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int64   `json:"n,omitempty"`
}

// epoch is the zero of every timestamp the harness takes.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// sample is one timed operation: when it ended, how long it took and how
// much it carried (keys of a read or scan, user bytes of a commit).
type sample struct{ end, dur, n int64 }

// quantile returns the q-quantile of sorted values by the nearest-rank rule.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(int(q*float64(len(sorted))), len(sorted)-1)]
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n == 0 {
		return 0
	} else if n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// durationsMS returns, sorted, the durations in milliseconds of the samples
// that ended in [lo, hi).
func durationsMS(samples []sample, lo, hi int64) []float64 {
	var out []float64
	for _, s := range samples {
		if s.end >= lo && s.end < hi {
			out = append(out, float64(s.dur)/1e6)
		}
	}
	slices.Sort(out)
	return out
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procField reads one "name: value" number from a /proc/self file, 0 when
// the file or the field is missing (sandboxes hide some of them).
func procField(file, field string) int64 {
	f, err := os.Open("/proc/self/" + file)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			v, _ := strconv.ParseInt(strings.Fields(rest)[0], 10, 64)
			return v
		}
	}
	return 0
}
