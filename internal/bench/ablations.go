package bench

import (
	"fmt"
	"strings"
	"time"

	"wren/internal/cluster"
	"wren/internal/ycsb"
)

// AblationResult is one row of an ablation study.
type AblationResult struct {
	Variant     string
	Throughput  float64
	MeanLatMs   float64
	P99LatMs    float64
	ExtraLabel  string
	ExtraValue  float64
	StabBytesPS float64
}

// RunBlockingCommitAblation compares real Wren (client-side cache) against
// the "simple solution" the paper rejects in §III-B: blocking each commit
// until the write is covered by the local stable snapshot. It quantifies
// the commit-latency penalty CANToR's cache avoids.
func RunBlockingCommitAblation(o Options) ([]AblationResult, error) {
	variants := []struct {
		name     string
		blocking bool
	}{
		{name: "Wren (client cache)", blocking: false},
		{name: "Wren (blocking commit)", blocking: true},
	}
	var out []AblationResult
	for _, v := range variants {
		ccfg := o.clusterConfig(cluster.Wren, o.DCs, o.Partitions)
		ccfg.Server.BlockingCommit = v.blocking
		cl, err := cluster.New(ccfg)
		if err != nil {
			return nil, err
		}
		pTx := 4
		if pTx > o.Partitions {
			pTx = o.Partitions
		}
		w, err := ycsb.NewWorkload(o.workloadConfig(ycsb.Mix95, pTx, o.Partitions))
		if err != nil {
			cl.Close()
			return nil, err
		}
		if err := Preload(cl, w); err != nil {
			cl.Close()
			return nil, err
		}
		res, err := RunLoadPoint(LoadConfig{
			Cluster: cl, Workload: w, ThreadsPerClient: o.FixedThreads,
			Warmup: o.Warmup, Measure: o.Measure, Seed: o.Seed,
		})
		cl.Close()
		if err != nil {
			return nil, err
		}
		out = append(out, AblationResult{
			Variant:    v.name,
			Throughput: res.Throughput,
			MeanLatMs:  res.MeanLatMs,
			P99LatMs:   res.P99LatMs,
		})
	}
	return out, nil
}

// RunGossipIntervalAblation sweeps BiST's ΔG, quantifying the trade-off the
// paper describes: a longer stabilization period lowers gossip traffic but
// increases the age of the local stable snapshot, and with it local update
// visibility latency.
func RunGossipIntervalAblation(o Options, intervals []time.Duration) ([]AblationResult, error) {
	var out []AblationResult
	for _, ival := range intervals {
		opt := o
		opt.Server.GossipInterval = ival
		vis, err := RunVisibility(VisibilityConfig{
			Options:    opt,
			Protocol:   cluster.Wren,
			ProbeEvery: 10 * time.Millisecond,
			Duration:   opt.Measure,
		})
		if err != nil {
			return nil, fmt.Errorf("gossip ablation %v: %w", ival, err)
		}
		// Run a short load point on the same settings for traffic numbers.
		cl, err := cluster.New(opt.clusterConfig(cluster.Wren, opt.DCs, opt.Partitions))
		if err != nil {
			return nil, err
		}
		pTx := 4
		if pTx > opt.Partitions {
			pTx = opt.Partitions
		}
		w, err := ycsb.NewWorkload(opt.workloadConfig(ycsb.Mix95, pTx, opt.Partitions))
		if err != nil {
			cl.Close()
			return nil, err
		}
		if err := Preload(cl, w); err != nil {
			cl.Close()
			return nil, err
		}
		res, err := RunLoadPoint(LoadConfig{
			Cluster: cl, Workload: w, ThreadsPerClient: opt.FixedThreads,
			Warmup: opt.Warmup, Measure: opt.Measure, Seed: opt.Seed,
		})
		cl.Close()
		if err != nil {
			return nil, err
		}
		out = append(out, AblationResult{
			Variant:     fmt.Sprintf("ΔG=%v", ival),
			Throughput:  res.Throughput,
			MeanLatMs:   res.MeanLatMs,
			ExtraLabel:  "local visibility ms",
			ExtraValue:  vis.LocalMean / 1000,
			StabBytesPS: float64(res.StabBytes) / res.WindowSeconds,
		})
	}
	return out, nil
}

// RunGossipTopologyAblation compares BiST's all-to-all broadcast against
// the tree aggregation the paper sketches in §IV-B: 2(N−1) stabilization
// messages per round instead of N(N−1), traded against one extra hop of
// snapshot staleness.
func RunGossipTopologyAblation(o Options) ([]AblationResult, error) {
	variants := []struct {
		name string
		tree bool
	}{
		{name: "BiST broadcast (N(N-1) msgs)", tree: false},
		{name: "BiST tree (2(N-1) msgs)", tree: true},
	}
	var out []AblationResult
	for _, v := range variants {
		ccfg := o.clusterConfig(cluster.Wren, o.DCs, o.Partitions)
		ccfg.Server.GossipTree = v.tree
		cl, err := cluster.New(ccfg)
		if err != nil {
			return nil, err
		}
		pTx := 4
		if pTx > o.Partitions {
			pTx = o.Partitions
		}
		w, err := ycsb.NewWorkload(o.workloadConfig(ycsb.Mix95, pTx, o.Partitions))
		if err != nil {
			cl.Close()
			return nil, err
		}
		if err := Preload(cl, w); err != nil {
			cl.Close()
			return nil, err
		}
		res, err := RunLoadPoint(LoadConfig{
			Cluster: cl, Workload: w, ThreadsPerClient: o.FixedThreads,
			Warmup: o.Warmup, Measure: o.Measure, Seed: o.Seed,
		})
		cl.Close()
		if err != nil {
			return nil, err
		}
		out = append(out, AblationResult{
			Variant:     v.name,
			Throughput:  res.Throughput,
			MeanLatMs:   res.MeanLatMs,
			StabBytesPS: float64(res.StabBytes) / res.WindowSeconds,
		})
	}
	return out, nil
}

// RunSnapshotAgeAblation measures how far behind "now" the snapshots handed
// to transactions are, for each protocol — the freshness cost of Wren's
// nonblocking design that the paper accepts as its trade-off (§III-B).
//
// Clock skew is forced to zero for this ablation: the structural ordering it
// demonstrates (Wren's stable snapshot needs an extra apply+gossip round
// that Cure's current-clock snapshot does not) is sub-millisecond on small
// topologies, and ±ms NTP-style offsets inject symmetric noise that can
// invert the measured ordering without changing the structural cost.
func RunSnapshotAgeAblation(o Options) ([]AblationResult, error) {
	o.ClockSkew = 0
	var out []AblationResult
	for _, proto := range []cluster.Protocol{cluster.Wren, cluster.Cure} {
		vis, err := RunVisibility(VisibilityConfig{
			Options:    o,
			Protocol:   proto,
			ProbeEvery: 10 * time.Millisecond,
			Duration:   o.Measure,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, AblationResult{
			Variant:    proto.String(),
			ExtraLabel: "local visibility ms (snapshot age)",
			ExtraValue: vis.LocalMean / 1000,
		})
	}
	return out, nil
}

// FormatAblation renders ablation rows.
func FormatAblation(title string, rows []AblationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for _, r := range rows {
		fmt.Fprintf(&b, "%-26s", r.Variant)
		if r.Throughput > 0 {
			fmt.Fprintf(&b, " tx/s=%-9.0f mean=%-7.2fms", r.Throughput, r.MeanLatMs)
		}
		if r.P99LatMs > 0 {
			fmt.Fprintf(&b, " p99=%-7.2fms", r.P99LatMs)
		}
		if r.ExtraLabel != "" {
			fmt.Fprintf(&b, " %s=%.2f", r.ExtraLabel, r.ExtraValue)
		}
		if r.StabBytesPS > 0 {
			fmt.Fprintf(&b, " stabB/s=%.0f", r.StabBytesPS)
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}
