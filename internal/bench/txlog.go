package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"wren/internal/cluster"
	"wren/internal/stats"
)

// The txlog sweep prices the commit-record log: with it, every 2PC writes
// PREPARE records at the cohorts and a COMMIT decision at the coordinator
// BEFORE the client is acknowledged, so commit (ack) latency now carries
// the logging cost — one fsync on the ack path under fsync=always, an
// append otherwise. The sweep runs the same write-only closed loop with
// commit logging on and off under every fsync policy and reports ack
// latency percentiles, leaving BENCH_txlog.json as the standing record of
// what the acknowledged-transaction durability unit costs (uploaded as a
// CI artifact by bench-smoke).

// TxLogRow is one measured cell of the sweep.
type TxLogRow struct {
	Fsync         string  `json:"fsync"`
	TxLog         bool    `json:"txlog"`
	Threads       int     `json:"threads"`
	Commits       uint64  `json:"commits"`
	CommitsPerSec float64 `json:"commits_per_sec"`
	AckMeanMs     float64 `json:"ack_mean_ms"`
	AckP50Ms      float64 `json:"ack_p50_ms"`
	AckP99Ms      float64 `json:"ack_p99_ms"`
	Errors        uint64  `json:"errors"`
}

// TxLogReport is the machine-readable output of the sweep.
type TxLogReport struct {
	Protocol   string     `json:"protocol"`
	Backend    string     `json:"backend"`
	GoMaxProcs int        `json:"gomaxprocs"`
	NumCPU     int        `json:"num_cpu"`
	DCs        int        `json:"dcs"`
	Partitions int        `json:"partitions"`
	Rows       []TxLogRow `json:"rows"`
}

// TxLogFsyncPolicies are the policies the sweep covers.
var TxLogFsyncPolicies = []string{"always", "interval", "never"}

// RunTxLog measures commit-acknowledgement latency with the transaction
// log on vs off, per fsync policy, on a Wren cluster over the wal backend.
// Each cell gets a fresh cluster and data directory; clients run a
// write-only closed loop (two keys per transaction, so most commits are
// multi-cohort 2PCs) and time the Commit call alone — the client-observed
// ack latency the commit-record log taxes.
func RunTxLog(o Options) (*TxLogReport, error) {
	backendName := o.StoreBackend
	if backendName == "" || backendName == "memory" {
		backendName = "wal" // the log needs a durable backend underneath
	}
	rep := &TxLogReport{
		Protocol:   cluster.Wren.String(),
		Backend:    backendName,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		DCs:        1,
		Partitions: min(o.Partitions, 4),
	}
	threads := o.FixedThreads
	if threads <= 0 {
		threads = 2
	}
	for _, fsync := range TxLogFsyncPolicies {
		for _, withLog := range []bool{false, true} {
			row, err := runTxLogCell(o, rep.Partitions, backendName, fsync, withLog, threads)
			if err != nil {
				return rep, fmt.Errorf("txlog sweep (%s, txlog=%v): %w", fsync, withLog, err)
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, nil
}

func runTxLogCell(o Options, partitions int, backendName, fsync string, withLog bool, threads int) (TxLogRow, error) {
	eo := o
	eo.StoreBackend = backendName
	eo.FsyncPolicy = fsync
	cfg := eo.clusterConfig(cluster.Wren, 1, partitions)
	cfg.DisableTxLog = !withLog
	cl, err := cluster.New(cfg)
	if err != nil {
		return TxLogRow{}, err
	}
	defer cl.Close()

	var (
		hist      = stats.NewHistogram()
		committed stats.Counter
		errCount  stats.Counter
		measuring sync.WaitGroup
		stop      = make(chan struct{})
		errCh     = make(chan error, threads)
	)
	start := make(chan struct{})
	for th := 0; th < threads; th++ {
		measuring.Add(1)
		go func(th int) {
			defer measuring.Done()
			client, err := cl.NewClient(0, th%partitions)
			if err != nil {
				errCh <- err
				return
			}
			defer client.Close()
			<-start
			var measure bool
			warmupEnd := time.Now().Add(o.Warmup)
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !measure && time.Now().After(warmupEnd) {
					measure = true
				}
				tx, err := client.Begin()
				if err != nil {
					errCount.Inc()
					continue
				}
				k1 := fmt.Sprintf("txlog-%d-%d-a", th, i%o.KeysPerPartition)
				k2 := fmt.Sprintf("txlog-%d-%d-b", th, i%o.KeysPerPartition)
				i++
				if err := tx.Write(k1, []byte("x")); err != nil {
					errCount.Inc()
					_ = tx.Abort()
					continue
				}
				if err := tx.Write(k2, []byte("y")); err != nil {
					errCount.Inc()
					_ = tx.Abort()
					continue
				}
				t0 := time.Now()
				if _, err := tx.Commit(); err != nil {
					errCount.Inc()
					continue
				}
				if measure {
					hist.RecordDuration(time.Since(t0))
					committed.Inc()
				}
			}
		}(th)
	}
	close(start)
	time.Sleep(o.Warmup + o.Measure)
	close(stop)
	measuring.Wait()
	select {
	case err := <-errCh:
		return TxLogRow{}, err
	default:
	}
	if err := cl.Healthy(); err != nil {
		return TxLogRow{}, fmt.Errorf("cluster finished degraded: %w", err)
	}
	secs := o.Measure.Seconds()
	return TxLogRow{
		Fsync:         fsync,
		TxLog:         withLog,
		Threads:       threads,
		Commits:       committed.Load(),
		CommitsPerSec: float64(committed.Load()) / secs,
		AckMeanMs:     hist.Mean() / 1000,
		AckP50Ms:      float64(hist.Percentile(50)) / 1000,
		AckP99Ms:      float64(hist.Percentile(99)) / 1000,
		Errors:        errCount.Load(),
	}, nil
}

// WriteJSON serializes the report, indented for diffable commits.
func (r *TxLogReport) WriteJSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// FormatTxLog renders the report for humans.
func FormatTxLog(r *TxLogReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Commit-ack latency: transaction log on vs off (%s/%s, GOMAXPROCS=%d, %dx%d, %d threads)\n",
		r.Protocol, r.Backend, r.GoMaxProcs, r.DCs, r.Partitions, rowThreads(r))
	fmt.Fprintf(&b, "%-10s %-6s %12s %12s %12s %12s\n",
		"fsync", "txlog", "commits/s", "mean(ms)", "p50(ms)", "p99(ms)")
	for _, row := range r.Rows {
		on := "off"
		if row.TxLog {
			on = "on"
		}
		fmt.Fprintf(&b, "%-10s %-6s %12.0f %12.3f %12.3f %12.3f\n",
			row.Fsync, on, row.CommitsPerSec, row.AckMeanMs, row.AckP50Ms, row.AckP99Ms)
	}
	return b.String()
}

func rowThreads(r *TxLogReport) int {
	if len(r.Rows) == 0 {
		return 0
	}
	return r.Rows[0].Threads
}
