// Command benchmark is the benchmark of record for this repository: four
// workloads against in-process deployments wired over loopback TCP exactly
// like cmd/wren-server and cmd/wren-cli, end-to-end metrics from an untraced
// pass and per-layer metrics from a traced one. See README.md.
//
//	bash benchmark/run.sh                      every workload, both passes
//	bash benchmark/run.sh -workload read_mem   one workload
//	bash benchmark/run.sh -quick               seconds instead of minutes
//	bash benchmark/run.sh -runs 10 -trace 0 -result a.json
//	bash benchmark/run.sh -agree a.json b.json
//
// With -workload and -trace both given it makes one run and ends its output
// with the one-line JSON object BENCHMARK.json's contract asks for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// commit is the commit the binary was built from; run.sh sets it.
var commit = "unknown"

// resultFile is what -result writes and -agree reads.
type resultFile struct {
	Meta meta         `json:"meta"`
	Runs []*runResult `json:"runs"`
}

type meta struct {
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Links      int     `json:"links"`
	Seconds    float64 `json:"seconds"`
	Warmup     float64 `json:"warmup_seconds"`
	Note       string  `json:"note"`
}

const note = "Wren protocol, default timers (apply 5 ms, gossip 5 ms; version GC per workload, below), loopback TCP, " +
	"no injected delay: latency is processor + loopback time. Sessions and servers share this process's cores."

// The measured window's default length is BENCHMARK.json's run_seconds. The
// warm-up before it is fixed; -quick shortens both.
const (
	defaultSeconds = 20
	warmup         = 2 * time.Second
	quickSeconds   = 2
	quickWarmup    = 300 * time.Millisecond
)

func main() {
	if err := mainErr(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run only this workload (default: all four)")
		seed     = fs.Int64("seed", 1, "workload seed; run i of -runs uses seed+i")
		seconds  = fs.Float64("seconds", defaultSeconds, "measured window per run, in seconds")
		trace    = fs.String("trace", "", "0 = untraced pass only (end-to-end metrics), 1 = traced pass only (per-layer metrics), empty = both")
		quick    = fs.Bool("quick", false, "0.3 s warm-up, 2 s windows, datasets divided by 16")
		runs     = fs.Int("runs", 1, "repeat each selected run this many times with consecutive seeds")
		links    = fs.Int("links", min(2, runtime.NumCPU()), "TCP links per client pool")
		result   = fs.String("result", "", "write every run's metrics to this JSON file (default <out>/result.json)")
		outDir   = fs.String("out", filepath.Join("benchmark", "out"), "directory for results and span dumps")
		tmpDir   = fs.String("tmp", "", "parent directory for data directories (default: the system's temporary directory)")
		agree    = fs.Bool("agree", false, "compare two result files given as arguments against each metric's bound")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *agree {
		if fs.NArg() != 2 {
			return fmt.Errorf("-agree needs two result files")
		}
		return agreeFiles(fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	if err := checkPinned(); err != nil {
		return err
	}
	nproc := runtime.NumCPU()
	if *links < 1 || *links > nproc {
		return fmt.Errorf("links = %d but this machine has %d processors: more links than processors only adds threads that take turns", *links, nproc)
	}
	selected := specs
	if *workload != "" {
		s := specByName(*workload)
		if s == nil {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		selected = []*spec{s}
	}
	var passes []bool // traced?
	switch *trace {
	case "":
		passes = []bool{false, true}
	case "0":
		passes = []bool{false}
	case "1":
		passes = []bool{true}
	default:
		return fmt.Errorf("-trace must be 0 or 1")
	}
	warm := warmup
	if *quick {
		warm = quickWarmup
		explicit := false // an explicit -seconds wins over -quick's window
		fs.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "seconds" })
		if !explicit {
			*seconds = quickSeconds
		}
	}
	if *seconds <= 0 || *runs < 1 {
		return fmt.Errorf("-seconds and -runs must be positive")
	}
	if *tmpDir != "" {
		if err := os.MkdirAll(*tmpDir, 0o755); err != nil {
			return err
		}
	}

	file := resultFile{Meta: meta{Nproc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit,
		Seed: *seed, Links: *links, Seconds: *seconds, Warmup: warm.Seconds(), Note: note}}
	fmt.Printf("wren benchmark: %d processors, GOMAXPROCS %d, %s, commit %s\n%s\n",
		nproc, file.Meta.GOMAXPROCS, file.Meta.Go, commit, note)

	ok := true
	probes := new(probeCache)
	var last *runResult
	for _, traced := range passes {
		for _, s := range selected {
			if *quick {
				s = s.scaled(16)
			}
			for i := 0; i < *runs; i++ {
				cfg := runConfig{s: s, seed: *seed + int64(i), traced: traced, quick: *quick, links: *links, nproc: nproc,
					warmup: warm, window: time.Duration(*seconds * float64(time.Second)),
					setups: 3, tmp: *tmpDir, outDir: *outDir, probes: probes}
				if traced || *quick {
					cfg.setups = 1
				}
				res, err := execute(cfg)
				if err != nil {
					return err
				}
				printRun(res)
				file.Runs = append(file.Runs, res)
				ok = ok && res.Correct
				last = res
			}
		}
	}

	path := *result
	if path == "" {
		path = filepath.Join(*outDir, "result.json")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	if len(file.Runs) == 1 {
		// The contract line: exactly these keys, value and unit per metric.
		type vu struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		line := struct {
			Correct   bool          `json:"correct"`
			Attempted int64         `json:"attempted"`
			Failed    int64         `json:"failed"`
			Metrics   map[string]vu `json:"metrics"`
		}{last.Correct, last.Attempted, last.Failed, make(map[string]vu, len(last.Metrics))}
		for name, v := range last.Metrics {
			line.Metrics[name] = vu{v.Value, v.Unit}
		}
		out, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Println(string(out))
	}
	if !ok {
		return fmt.Errorf("an output check failed (see the problems above)")
	}
	return nil
}

// printRun lists every metric of a run by name with its unit and the number
// of samples behind it.
func printRun(res *runResult) {
	pass, defs := "untraced", endToEnd
	if res.Traced {
		pass, defs = "traced", perLayer
	}
	fmt.Printf("\n%s (%s pass): seed %d, %g s window, %d sessions over %d links, version GC %s, %d attempted, %d failed, correct=%v\n",
		res.Workload, pass, res.Seed, res.Seconds, res.Sessions, res.Links, res.VersionGC, res.Attempted, res.Failed, res.Correct)
	for _, d := range defs {
		v := res.Metrics[d.Name]
		fmt.Printf("  %-36s %14.4f %-6s", d.Name, v.Value, v.Unit)
		if v.N > 0 {
			fmt.Printf(" n=%d", v.N)
		}
		fmt.Println()
	}
	for _, p := range res.Problems {
		fmt.Println("  PROBLEM:", p)
	}
}
