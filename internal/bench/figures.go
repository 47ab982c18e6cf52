package bench

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"wren/internal/cluster"
	"wren/internal/replica"
	"wren/internal/ycsb"
)

// Options scales every figure runner between "smoke test" (bench_test.go)
// and "full sweep" (cmd/wren-bench).
type Options struct {
	// DCs and Partitions define the default topology (paper default:
	// 3 DCs, 8 partitions).
	DCs        int
	Partitions int
	// Threads are the per-client-process thread counts swept for the
	// latency-throughput figures (paper: 1, 2, 4, 8, 16).
	Threads []int
	// FixedThreads is the single thread count used by the ratio figures
	// (6a, 6b, 7a) and the visibility figure (7b).
	FixedThreads int
	// Warmup and Measure bound each load point.
	Warmup  time.Duration
	Measure time.Duration
	// KeysPerPartition sizes the keyspace.
	KeysPerPartition int
	// ClockSkew is the maximum simulated NTP offset.
	ClockSkew time.Duration
	// InterDCLatency is the uniform WAN latency for throughput figures.
	InterDCLatency time.Duration
	// Server is the cluster's server template (see cluster.Config.Server).
	// Its DataDir is a root: every cluster a run builds gets its own
	// cluster-<n> subdirectory so no load point recovers a previous one's
	// data.
	Server replica.Config
	// Seed fixes randomness for reproducibility.
	Seed int64
}

// DefaultOptions mirrors the paper's configuration, scaled to run on a
// single machine. The zero server template runs ΔR and ΔG every 5ms, as
// the paper does.
func DefaultOptions() Options {
	return Options{
		DCs:              3,
		Partitions:       8,
		Threads:          []int{1, 2, 4, 8, 16},
		FixedThreads:     4,
		Warmup:           time.Second,
		Measure:          4 * time.Second,
		KeysPerPartition: 1000,
		ClockSkew:        2 * time.Millisecond,
		InterDCLatency:   10 * time.Millisecond,
		Seed:             1,
	}
}

// SmokeOptions is a reduced configuration for quick regression runs.
func SmokeOptions() Options {
	o := DefaultOptions()
	o.Partitions = 4
	o.Threads = []int{1, 4}
	o.FixedThreads = 2
	o.Warmup = 300 * time.Millisecond
	o.Measure = 1500 * time.Millisecond
	o.KeysPerPartition = 200
	return o
}

// clusterSeq distinguishes the data directories of the many clusters one
// benchmark invocation builds; reusing a directory would make a later
// cluster recover an earlier one's versions and contaminate the numbers.
var clusterSeq atomic.Uint64

// freshDataDir carves an unused subdirectory out of the user-supplied
// data-dir root. MkdirTemp (not a bare counter) keeps repeated wren-bench
// invocations against the same root from recovering each other's state.
func freshDataDir(root string) string {
	if err := os.MkdirAll(root, 0o755); err == nil {
		if d, err := os.MkdirTemp(root, "cluster-*"); err == nil {
			return d
		}
	}
	// Fall back to a counter-named subdir; any real problem with the root
	// surfaces as a clear error when the WAL opens it.
	return filepath.Join(root, fmt.Sprintf("cluster-%04d", clusterSeq.Add(1)))
}

func (o Options) clusterConfig(proto cluster.Protocol, dcs, partitions int) cluster.Config {
	srv := o.Server
	if srv.DataDir != "" {
		srv.DataDir = freshDataDir(srv.DataDir)
	}
	return cluster.Config{
		Protocol:       proto,
		NumDCs:         dcs,
		NumPartitions:  partitions,
		InterDCLatency: o.InterDCLatency,
		ClockSkew:      o.ClockSkew,
		Server:         srv,
		Seed:           o.Seed,
	}
}

func (o Options) workloadConfig(mix ycsb.Mix, partitionsPerTx, numPartitions int) ycsb.Config {
	return ycsb.Config{
		Mix:              mix,
		PartitionsPerTx:  partitionsPerTx,
		NumPartitions:    numPartitions,
		KeysPerPartition: o.KeysPerPartition,
		ZipfTheta:        0.99,
		ValueSize:        8,
	}
}

// Series is one protocol's curve in a latency-throughput figure.
type Series struct {
	Protocol string
	Points   []Result
}

// AllProtocols is the comparison set of the paper's evaluation.
var AllProtocols = []cluster.Protocol{cluster.Cure, cluster.HCure, cluster.Wren}

// SweepProtocols produces the latency-throughput curves behind Figures 3a,
// 4a, 4b, 5a and 5b: for each protocol, one fresh cluster swept across
// thread counts.
func SweepProtocols(o Options, mix ycsb.Mix, partitionsPerTx int) ([]Series, error) {
	var out []Series
	for _, proto := range AllProtocols {
		serie, err := sweepOne(o, proto, mix, partitionsPerTx, o.DCs, o.Partitions, o.Threads)
		if err != nil {
			return nil, fmt.Errorf("%v sweep: %w", proto, err)
		}
		out = append(out, serie)
	}
	return out, nil
}

func sweepOne(o Options, proto cluster.Protocol, mix ycsb.Mix, partitionsPerTx, dcs, partitions int, threads []int) (Series, error) {
	cl, err := cluster.New(o.clusterConfig(proto, dcs, partitions))
	if err != nil {
		return Series{}, err
	}
	defer cl.Close()
	w, err := ycsb.NewWorkload(o.workloadConfig(mix, partitionsPerTx, partitions))
	if err != nil {
		return Series{}, err
	}
	if err := Preload(cl, w); err != nil {
		return Series{}, err
	}
	serie := Series{Protocol: proto.String()}
	for _, t := range threads {
		res, err := RunLoadPoint(LoadConfig{
			Cluster: cl, Workload: w, ThreadsPerClient: t,
			Warmup: o.Warmup, Measure: o.Measure, Seed: o.Seed,
		})
		if err != nil {
			return Series{}, err
		}
		serie.Points = append(serie.Points, res)
	}
	return serie, nil
}

// RatioCell is one bar of Figures 6a/6b: Wren's throughput normalized to
// Cure's in the same configuration.
type RatioCell struct {
	Label          string  // e.g. "95:5 8P" or "90:10 5DC"
	WrenThroughput float64 // absolute, tx/s (the number atop each bar)
	CureThroughput float64
	Ratio          float64
}

// RunFig6a measures Wren's throughput normalized to Cure when scaling the
// number of partitions per DC (paper: 4, 8, 16 partitions; 3 DCs).
func RunFig6a(o Options, partitionCounts []int, mixes []ycsb.Mix) ([]RatioCell, error) {
	var out []RatioCell
	for _, mix := range mixes {
		for _, parts := range partitionCounts {
			pTx := 4
			if pTx > parts {
				pTx = parts
			}
			cell, err := ratioCell(o, mix, pTx, o.DCs, parts,
				fmt.Sprintf("%s %dP", mix.Name(), parts))
			if err != nil {
				return nil, err
			}
			out = append(out, cell)
		}
	}
	return out, nil
}

// RunFig6b measures Wren's throughput normalized to Cure when scaling the
// number of DCs (paper: 3 and 5 DCs; 16 partitions).
func RunFig6b(o Options, dcCounts []int, partitions int, mixes []ycsb.Mix) ([]RatioCell, error) {
	var out []RatioCell
	for _, mix := range mixes {
		for _, dcs := range dcCounts {
			pTx := 4
			if pTx > partitions {
				pTx = partitions
			}
			cell, err := ratioCell(o, mix, pTx, dcs, partitions,
				fmt.Sprintf("%s %dDC", mix.Name(), dcs))
			if err != nil {
				return nil, err
			}
			out = append(out, cell)
		}
	}
	return out, nil
}

func ratioCell(o Options, mix ycsb.Mix, pTx, dcs, partitions int, label string) (RatioCell, error) {
	threads := []int{o.FixedThreads}
	wrenSeries, err := sweepOne(o, cluster.Wren, mix, pTx, dcs, partitions, threads)
	if err != nil {
		return RatioCell{}, fmt.Errorf("wren %s: %w", label, err)
	}
	cureSeries, err := sweepOne(o, cluster.Cure, mix, pTx, dcs, partitions, threads)
	if err != nil {
		return RatioCell{}, fmt.Errorf("cure %s: %w", label, err)
	}
	cell := RatioCell{
		Label:          label,
		WrenThroughput: wrenSeries.Points[0].Throughput,
		CureThroughput: cureSeries.Points[0].Throughput,
	}
	if cell.CureThroughput > 0 {
		cell.Ratio = cell.WrenThroughput / cell.CureThroughput
	}
	return cell, nil
}

// TrafficResult is Figure 7a's measurement for one DC count: bytes moved by
// the replication and stabilization protocols, normalized per committed
// transaction (replication) and per second (stabilization).
type TrafficResult struct {
	DCs                int
	Protocol           string
	ReplBytesPerTx     float64
	StabBytesPerSecond float64
}

// RunFig7a measures replication and stabilization traffic for Wren and
// Cure (the paper reports Wren's bytes normalized w.r.t. Cure's: ~37% fewer
// replication bytes and ~60% fewer stabilization bytes at 5 DCs).
func RunFig7a(o Options, dcCounts []int) ([]TrafficResult, error) {
	var out []TrafficResult
	pTx := 4
	if pTx > o.Partitions {
		pTx = o.Partitions
	}
	for _, dcs := range dcCounts {
		for _, proto := range []cluster.Protocol{cluster.Wren, cluster.Cure} {
			serie, err := sweepOne(o, proto, ycsb.Mix95, pTx, dcs, o.Partitions,
				[]int{o.FixedThreads})
			if err != nil {
				return nil, fmt.Errorf("fig7a %v %dDC: %w", proto, dcs, err)
			}
			pt := serie.Points[0]
			tr := TrafficResult{DCs: dcs, Protocol: proto.String()}
			if pt.Committed > 0 {
				tr.ReplBytesPerTx = float64(pt.ReplInterBytes) / float64(pt.Committed)
			}
			tr.StabBytesPerSecond = float64(pt.StabBytes) / pt.WindowSeconds
			out = append(out, tr)
		}
	}
	return out, nil
}

// FormatSeries renders latency-throughput series the way the paper plots
// them (one line per load point, grouped by protocol).
func FormatSeries(title string, series []Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-8s %8s %12s %10s %10s %10s %9s %9s\n",
		"proto", "threads", "tx/s", "mean(ms)", "p50(ms)", "p99(ms)", "blocked%", "blkms")
	for _, s := range series {
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%-8s %8d %12.0f %10.2f %10.2f %10.2f %9.1f %9.2f\n",
				s.Protocol, p.Threads, p.Throughput, p.MeanLatMs, p.P50LatMs, p.P99LatMs,
				p.BlockedShare*100, p.MeanBlockMs)
		}
	}
	return b.String()
}

// FormatRatios renders Figure 6-style normalized throughput bars.
func FormatRatios(title string, cells []RatioCell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-14s %14s %14s %8s\n", "config", "wren(tx/s)", "cure(tx/s)", "ratio")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-14s %14.0f %14.0f %8.2f\n",
			c.Label, c.WrenThroughput, c.CureThroughput, c.Ratio)
	}
	return b.String()
}

// FormatTraffic renders Figure 7a-style traffic numbers including the
// Wren/Cure ratio per DC count, in increasing DC count so the same results
// always print the same text.
func FormatTraffic(title string, results []TrafficResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-5s %-8s %16s %16s\n", "DCs", "proto", "repl B/tx", "stab B/s")
	byDC := map[int]map[string]TrafficResult{}
	for _, r := range results {
		fmt.Fprintf(&b, "%-5d %-8s %16.1f %16.0f\n",
			r.DCs, r.Protocol, r.ReplBytesPerTx, r.StabBytesPerSecond)
		if byDC[r.DCs] == nil {
			byDC[r.DCs] = map[string]TrafficResult{}
		}
		byDC[r.DCs][r.Protocol] = r
	}
	for _, dcs := range slices.Sorted(maps.Keys(byDC)) {
		m := byDC[dcs]
		w, okW := m["Wren"]
		c, okC := m["Cure"]
		if okW && okC && c.ReplBytesPerTx > 0 && c.StabBytesPerSecond > 0 {
			fmt.Fprintf(&b, "%dDC normalized (Wren/Cure): repl %.2f, stab %.2f\n",
				dcs, w.ReplBytesPerTx/c.ReplBytesPerTx, w.StabBytesPerSecond/c.StabBytesPerSecond)
		}
	}
	return b.String()
}
