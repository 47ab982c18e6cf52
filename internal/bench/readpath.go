package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"wren/internal/cluster"
	"wren/internal/ycsb"
)

// The read-path benchmark suite measures the cost of Wren's headline
// operation — the nonblocking transactional read — in isolation and under
// write interference, and verifies structurally (via the runtime mutex
// profile) that the read handlers never contend on a server-wide mutex.
//
// Three workloads bracket the read path: reads-only (nothing but the read
// path), 95:5 (the paper's default) and 50:50 (heavy write interference,
// where a read path that shares locks with the commit/apply pipeline
// collapses). Each is swept across client-goroutine counts; wren-bench
// serializes the report to BENCH_read_path.json so successive PRs leave a
// comparable perf trajectory.

// ReadPathWorkloads are the mixes the suite sweeps.
var ReadPathWorkloads = []ycsb.Mix{ycsb.Mix100, ycsb.Mix95, ycsb.Mix50}

// ReadPathRow is one measured load point of the read-path suite.
type ReadPathRow struct {
	Workload     string  `json:"workload"`      // "100:0", "95:5", "50:50"
	Threads      int     `json:"threads"`       // client goroutines per (DC, partition)
	TotalThreads int     `json:"total_threads"` // across the whole cluster
	TxPerSec     float64 `json:"tx_per_sec"`    // committed transactions/s
	ReadsPerSec  float64 `json:"reads_per_sec"` // individual key reads/s
	MeanLatMs    float64 `json:"mean_lat_ms"`
	P50LatMs     float64 `json:"p50_lat_ms"`
	P99LatMs     float64 `json:"p99_lat_ms"`
	Committed    uint64  `json:"committed"`
	Errors       uint64  `json:"errors"`
}

// MutexReport summarizes the runtime mutex profile captured across the
// suite. ReadPathSamples counts contention events on a plain sync.Mutex
// inside the server read handlers (handleStartTx, handleTxRead,
// handleSliceReq, readSlice) — the footprint of the old design, where every
// read serialized on the server-wide mutex. It must be zero: the read path
// owns no plain mutex at all. Two contention sources are excluded
// deliberately because they are not server-wide: striped RWMutexes (store
// shards, request maps — per-stripe, and read-locks only contend with
// writers) and the transport's own per-link locks (the in-memory link
// queue under s.send, which any handler — old or new design — pays).
type MutexReport struct {
	CyclesPerSecond   int64   `json:"cycles_per_second"`
	TotalSamples      int     `json:"total_samples"`
	ReadPathSamples   int     `json:"read_path_mutex_samples"`
	ReadPathDelayMs   float64 `json:"read_path_mutex_delay_ms"`
	ReadPathFootprint string  `json:"read_path_footprint,omitempty"` // first offending stack, for diagnosis
}

// Clean reports whether the read path showed zero server-wide mutex
// contention.
func (m *MutexReport) Clean() bool { return m.ReadPathSamples == 0 }

// ReadPathReport is the machine-readable output of the suite.
type ReadPathReport struct {
	Protocol   string        `json:"protocol"`
	Backend    string        `json:"backend"`
	GoMaxProcs int           `json:"gomaxprocs"`
	NumCPU     int           `json:"num_cpu"`
	DCs        int           `json:"dcs"`
	Partitions int           `json:"partitions"`
	Rows       []ReadPathRow `json:"rows"`
	Mutex      MutexReport   `json:"mutex"`
}

// RunReadPath sweeps the read-path workloads across the given goroutine
// counts on a Wren cluster, capturing the mutex profile for the whole
// suite. The profile sampling fraction is restored on return.
func RunReadPath(o Options, threads []int) (*ReadPathReport, error) {
	if len(threads) == 0 {
		threads = []int{1, 4, 8, 16}
	}
	rep := &ReadPathReport{
		Protocol:   cluster.Wren.String(),
		Backend:    backendLabel(o.StoreBackend),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		DCs:        o.DCs,
		Partitions: o.Partitions,
	}

	prev := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(prev)

	for _, mix := range ReadPathWorkloads {
		cl, err := cluster.New(o.clusterConfig(cluster.Wren, o.DCs, o.Partitions))
		if err != nil {
			return nil, err
		}
		pTx := 4
		if pTx > o.Partitions {
			pTx = o.Partitions
		}
		w, err := ycsb.NewWorkload(o.workloadConfig(mix, pTx, o.Partitions))
		if err != nil {
			cl.Close()
			return nil, err
		}
		if err := Preload(cl, w); err != nil {
			cl.Close()
			return nil, err
		}
		for _, t := range threads {
			res, err := RunLoadPoint(LoadConfig{
				Cluster: cl, Workload: w, ThreadsPerClient: t,
				Warmup: o.Warmup, Measure: o.Measure, Seed: o.Seed,
			})
			if err != nil {
				cl.Close()
				return nil, fmt.Errorf("read-path %s x%d: %w", mix.Name(), t, err)
			}
			rep.Rows = append(rep.Rows, ReadPathRow{
				Workload:     mix.Name(),
				Threads:      t,
				TotalThreads: res.Threads,
				TxPerSec:     res.Throughput,
				ReadsPerSec:  res.Throughput * float64(mix.Reads),
				MeanLatMs:    res.MeanLatMs,
				P50LatMs:     res.P50LatMs,
				P99LatMs:     res.P99LatMs,
				Committed:    res.Committed,
				Errors:       res.Errors,
			})
		}
		cl.Close()
	}

	mr, err := CaptureMutexProfile()
	if err != nil {
		return nil, err
	}
	rep.Mutex = *mr
	return rep, nil
}

func backendLabel(b string) string {
	if b == "" {
		return "memory"
	}
	return b
}

// readPathFrames are the server read-handler functions a contention sample
// must pass through to count against the read path.
var readPathFrames = []string{
	"core.(*Server).handleStartTx",
	"core.(*Server).handleTxRead",
	"core.(*Server).handleSliceReq",
	"core.(*Server).readSlice",
}

// CaptureMutexProfile snapshots the runtime mutex profile (debug=1 text
// form) and classifies its samples. A sample counts against the read path
// when its stack passes through a read handler AND unlocks a plain
// sync.Mutex (not the read side or writer path of a striped RWMutex).
func CaptureMutexProfile() (*MutexReport, error) {
	p := pprof.Lookup("mutex")
	if p == nil {
		return nil, fmt.Errorf("bench: mutex profile unavailable")
	}
	var buf bytes.Buffer
	if err := p.WriteTo(&buf, 1); err != nil {
		return nil, fmt.Errorf("bench: write mutex profile: %w", err)
	}
	return ParseMutexProfile(buf.String()), nil
}

// ParseMutexProfile classifies a debug=1 mutex profile dump. Exposed for
// tests.
func ParseMutexProfile(text string) *MutexReport {
	rep := &MutexReport{}
	var (
		curCycles   int64
		curFrames   []string
		haveSample  bool
		flushSample func()
	)
	flushSample = func() {
		if !haveSample {
			return
		}
		rep.TotalSamples++
		plainMutex := false
		rwMutex := false
		handlerIdx := -1
		for i, f := range curFrames {
			if strings.Contains(f, "sync.(*Mutex).Unlock") {
				plainMutex = true
			}
			if strings.Contains(f, "sync.(*RWMutex)") {
				rwMutex = true
			}
			if handlerIdx < 0 {
				for _, rf := range readPathFrames {
					if strings.Contains(f, rf) {
						handlerIdx = i
						break
					}
				}
			}
		}
		// The messaging substrate's own locks (the in-memory link queue,
		// TCP writers) sit under s.send INSIDE the handlers; they are
		// per-link, not server-wide, and not what this gate polices. But
		// every handler also RUNS on a transport delivery goroutine, so
		// transport frames rootward of the handler must not exonerate a
		// sample — only a transport frame leafward of the handler (frames
		// are listed leaf-first) means the contended lock itself lives in
		// the transport.
		// Likewise sync.Pool's pinSlow: the runtime's pool-registration lock,
		// taken the first time a P touches a pool, not a lock of the server.
		foreignLock := false
		for i := 0; i < handlerIdx; i++ {
			if strings.Contains(curFrames[i], "internal/transport") || strings.Contains(curFrames[i], "sync.(*Pool).pinSlow") {
				foreignLock = true
				break
			}
		}
		if handlerIdx >= 0 && plainMutex && !rwMutex && !foreignLock {
			rep.ReadPathSamples++
			if rep.CyclesPerSecond > 0 {
				rep.ReadPathDelayMs += float64(curCycles) / float64(rep.CyclesPerSecond) * 1000
			}
			if rep.ReadPathFootprint == "" {
				rep.ReadPathFootprint = strings.Join(curFrames, " <- ")
			}
		}
		haveSample = false
		curFrames = nil
	}

	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "cycles/second="); ok {
			rep.CyclesPerSecond, _ = strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			continue
		}
		if strings.HasPrefix(line, "#") {
			// Frame line: "#\t0xADDR\tsymbol+0xOFF\tfile:line".
			fields := strings.Fields(line)
			if len(fields) >= 3 {
				sym := fields[2]
				if i := strings.LastIndex(sym, "+0x"); i > 0 {
					sym = sym[:i]
				}
				curFrames = append(curFrames, sym)
			}
			continue
		}
		// Sample header: "CYCLES COUNT @ 0x... 0x...".
		fields := strings.Fields(line)
		if len(fields) >= 3 && fields[2] == "@" {
			flushSample()
			curCycles, _ = strconv.ParseInt(fields[0], 10, 64)
			haveSample = true
		}
	}
	flushSample()
	return rep
}

// WriteJSON serializes the report, indented for diffable commits.
func (r *ReadPathReport) WriteJSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// FormatReadPath renders the report for humans.
func FormatReadPath(r *ReadPathReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Read path (%s, %s backend, GOMAXPROCS=%d)\n", r.Protocol, r.Backend, r.GoMaxProcs)
	fmt.Fprintf(&b, "%-8s %8s %12s %12s %10s %10s %10s\n",
		"mix", "threads", "tx/s", "reads/s", "mean(ms)", "p50(ms)", "p99(ms)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %8d %12.0f %12.0f %10.2f %10.2f %10.2f\n",
			row.Workload, row.TotalThreads, row.TxPerSec, row.ReadsPerSec,
			row.MeanLatMs, row.P50LatMs, row.P99LatMs)
	}
	fmt.Fprintf(&b, "mutex profile: %d samples total, %d on the read path",
		r.Mutex.TotalSamples, r.Mutex.ReadPathSamples)
	if r.Mutex.Clean() {
		fmt.Fprintf(&b, " (clean: no server-wide mutex in read handlers)\n")
	} else {
		fmt.Fprintf(&b, " (CONTENDED: %.2fms waited; first stack: %s)\n",
			r.Mutex.ReadPathDelayMs, r.Mutex.ReadPathFootprint)
	}
	return b.String()
}
