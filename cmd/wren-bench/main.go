// Command wren-bench regenerates the figures of the paper's evaluation
// (§V) at full scale:
//
//	wren-bench -figure 3a          # throughput vs latency, default workload
//	wren-bench -figure all         # every figure in sequence
//	wren-bench -figure 6a -threads 8
//	wren-bench -quick -figure 3a   # reduced topology for a fast look
//
// Figures: 3a, 3b, 4a, 4b, 5a, 5b, 6a, 6b, 7a, 7b. 3a and 3b are one
// sweep and one table (throughput, latency and blocking time), so 3b is
// another name for 3a and "all" runs it once.
//
// It runs on the simulated network and compares protocols with each other;
// how fast this implementation is, end to end and per layer, is measured
// by the benchmark of record (bash benchmark/run.sh).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"wren/internal/bench"
	"wren/internal/cluster"
	"wren/internal/ycsb"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wren-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	o, figure, err := parseArgs(args)
	if err != nil {
		return err
	}
	if figure == "all" {
		for _, f := range []string{"3a", "4a", "4b", "5a", "5b", "6a", "6b", "7a", "7b"} {
			if err := runFigure(o, f); err != nil {
				return fmt.Errorf("figure %s: %w", f, err)
			}
		}
		return nil
	}
	return runFigure(o, figure)
}

// parseArgs turns the command line into the options every runner reads and
// the one figure to run; it builds nothing.
func parseArgs(args []string) (o bench.Options, figure string, err error) {
	fs := flag.NewFlagSet("wren-bench", flag.ContinueOnError)
	o = bench.DefaultOptions()
	fs.StringVar(&figure, "figure", "", "figure to regenerate: 3a 3b 4a 4b 5a 5b 6a 6b 7a 7b all")
	fs.IntVar(&o.DCs, "dcs", o.DCs, "number of DCs")
	fs.IntVar(&o.Partitions, "partitions", o.Partitions, "partitions per DC")
	threads := fs.String("threads", "1,2,4,8,16", "comma-separated per-process thread counts for sweeps")
	fs.IntVar(&o.FixedThreads, "fixed-threads", o.FixedThreads, "thread count for ratio/traffic/visibility figures")
	fs.DurationVar(&o.Warmup, "warmup", o.Warmup, "warmup before each measurement window")
	fs.DurationVar(&o.Measure, "measure", o.Measure, "measurement window per load point")
	fs.IntVar(&o.KeysPerPartition, "keys", o.KeysPerPartition, "keys per partition")
	fs.DurationVar(&o.ClockSkew, "skew", o.ClockSkew, "max clock skew per server")
	fs.StringVar(&o.Server.StoreBackend, "store-backend", "memory", "storage engine: memory or sst")
	fs.StringVar(&o.Server.DataDir, "data-dir", "", "root data directory for durable backends; each benchmark cluster uses a fresh subdirectory (empty = per-cluster temp dir)")
	fs.StringVar(&o.Server.FsyncPolicy, "fsync", "", "transaction-log fsync policy for durable backends: always, interval (default) or never")
	fs.Int64Var(&o.Seed, "seed", o.Seed, "random seed")
	quick := fs.Bool("quick", false, "reduced topology and windows for a fast run")
	if err := fs.Parse(args); err != nil {
		return o, "", err
	}
	if figure == "" {
		fs.Usage()
		return o, "", fmt.Errorf("-figure is required")
	}
	if o.Threads, err = parseThreads(*threads); err != nil {
		return o, "", err
	}
	if *quick {
		q := bench.SmokeOptions()
		o.DCs = min(o.DCs, q.DCs)
		o.Partitions = q.Partitions
		o.Threads = q.Threads
		o.FixedThreads = q.FixedThreads
		o.Warmup = q.Warmup
		o.Measure = q.Measure
		o.KeysPerPartition = q.KeysPerPartition
	}
	return o, figure, nil
}

func parseThreads(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("invalid thread count %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no thread counts given")
	}
	return out, nil
}

func runFigure(o bench.Options, figure string) error {
	start := time.Now()
	defer func() { fmt.Printf("[%s done in %v]\n\n", figure, time.Since(start).Round(time.Second)) }()

	switch figure {
	case "3a", "3b":
		series, err := bench.SweepProtocols(o, ycsb.Mix95, clamp(4, o.Partitions))
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatSeries("Figures 3a/3b: throughput vs latency, mean blocking time (95:5, p=4, 3 DCs)", series))
	case "4a":
		series, err := bench.SweepProtocols(o, ycsb.Mix90, clamp(4, o.Partitions))
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatSeries("Figure 4a: throughput vs latency (90:10)", series))
	case "4b":
		series, err := bench.SweepProtocols(o, ycsb.Mix50, clamp(4, o.Partitions))
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatSeries("Figure 4b: throughput vs latency (50:50)", series))
	case "5a":
		series, err := bench.SweepProtocols(o, ycsb.Mix95, clamp(2, o.Partitions))
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatSeries("Figure 5a: throughput vs latency (p=2)", series))
	case "5b":
		series, err := bench.SweepProtocols(o, ycsb.Mix95, clamp(8, o.Partitions))
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatSeries("Figure 5b: throughput vs latency (p=8)", series))
	case "6a":
		counts := []int{4, 8, 16}
		if o.Partitions < 16 {
			counts = []int{2, o.Partitions}
		}
		cells, err := bench.RunFig6a(o, counts, ycsb.AllMix)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatRatios("Figure 6a: Wren throughput normalized to Cure (scaling partitions)", cells))
	case "6b":
		cells, err := bench.RunFig6b(o, []int{3, 5}, o.Partitions, ycsb.AllMix)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatRatios("Figure 6b: Wren throughput normalized to Cure (scaling DCs)", cells))
	case "7a":
		results, err := bench.RunFig7a(o, []int{3, 5})
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatTraffic("Figure 7a: replication and stabilization traffic", results))
	case "7b":
		var results []bench.VisibilityResult
		for _, proto := range []cluster.Protocol{cluster.Wren, cluster.Cure} {
			res, err := bench.RunVisibility(bench.VisibilityConfig{
				Options:           o,
				Protocol:          proto,
				ProbeEvery:        15 * time.Millisecond,
				Duration:          o.Measure,
				BackgroundThreads: 1,
				UseAWSLatencies:   true,
			})
			if err != nil {
				return err
			}
			results = append(results, res)
		}
		fmt.Print(bench.FormatVisibility("Figure 7b: update visibility latency CDF (AWS latency matrix)", results))
	default:
		return fmt.Errorf("unknown figure %q", figure)
	}
	return nil
}

func clamp(v, limit int) int {
	if v > limit {
		return limit
	}
	return v
}
