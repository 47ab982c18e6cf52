// Package bench is the measurement harness that regenerates every figure of
// the paper's evaluation (§V): closed-loop clients driving YCSB-style
// workloads against Wren/Cure/H-Cure clusters, recording throughput,
// latency, blocking time, traffic per protocol class, and update visibility
// latency.
package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wren/internal/cluster"
	"wren/internal/hlc"
	"wren/internal/sharding"
	"wren/internal/stats"
	"wren/internal/ycsb"
)

// LoadConfig drives one load point: a fixed number of closed-loop client
// threads per (DC, partition) pair, as in the paper (§V-A: one client
// process per partition per DC, 1..16 threads per process).
type LoadConfig struct {
	Cluster          *cluster.Cluster
	Workload         *ycsb.Workload
	ThreadsPerClient int
	Warmup           time.Duration
	Measure          time.Duration
	Seed             int64
}

// Result is the outcome of one load point.
type Result struct {
	Protocol string
	Threads  int // total client threads across the system
	// Throughput is committed transactions per second during the
	// measurement window.
	Throughput float64
	// Latencies in milliseconds.
	MeanLatMs float64
	P50LatMs  float64
	P99LatMs  float64
	// Blocking statistics (Cure/H-Cure; zero for Wren).
	BlockedShare  float64 // fraction of transactions that blocked
	MeanBlockMs   float64 // mean blocking time of blocked transactions
	BlockedP99Ms  float64
	Committed     uint64
	Errors        uint64
	WindowSeconds float64
	// Traffic during the measurement window.
	ReplInterBytes uint64 // inter-DC replication + heartbeats
	StabBytes      uint64 // intra-DC stabilization gossip
}

// Preload writes every workload key once (from DC 0) and waits until the
// fill is visible in every DC, so measurements never read missing keys.
func Preload(cl *cluster.Cluster, w *ycsb.Workload) error {
	client, err := cl.NewClient(0, 0)
	if err != nil {
		return err
	}
	defer client.Close()

	cfg := cl.Config()
	value := make([]byte, w.Config().ValueSize)
	const batch = 64
	var lastCT hlc.Timestamp
	var lastKey string
	count := 0
	pending := 0
	tx, err := client.Begin()
	if err != nil {
		return err
	}
	for _, keys := range w.AllKeys() {
		for _, k := range keys {
			if err := tx.Write(k, value); err != nil {
				return err
			}
			lastKey = k
			pending++
			count++
			if pending >= batch {
				ct, err := tx.Commit()
				if err != nil {
					return fmt.Errorf("preload commit: %w", err)
				}
				lastCT = ct
				pending = 0
				if tx, err = client.Begin(); err != nil {
					return err
				}
			}
		}
	}
	ct, err := tx.Commit()
	if err != nil {
		return fmt.Errorf("preload final commit: %w", err)
	}
	if pending > 0 {
		lastCT = ct
	}
	if count == 0 {
		return nil
	}

	// Wait for the fill to become visible everywhere.
	p := sharding.PartitionOf(lastKey, cfg.NumPartitions)
	deadline := time.Now().Add(30 * time.Second)
	for dc := 0; dc < cfg.NumDCs; dc++ {
		for {
			visible := false
			if dc == 0 {
				visible = cl.LocalUpdateVisible(0, p, lastCT)
			} else {
				visible = cl.RemoteUpdateVisible(dc, p, 0, lastCT)
			}
			if visible {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("preload not visible in DC %d within 30s", dc)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// RunLoadPoint runs one closed-loop load point and reports the aggregate
// result. The traffic counters are reset at the start of the measurement
// window so they cover exactly the measured interval.
func RunLoadPoint(cfg LoadConfig) (Result, error) {
	cl := cfg.Cluster
	ccfg := cl.Config()
	if cfg.Warmup <= 0 {
		cfg.Warmup = 500 * time.Millisecond
	}
	if cfg.Measure <= 0 {
		cfg.Measure = 2 * time.Second
	}

	type threadState struct {
		client cluster.Client
		gen    *ycsb.Generator
	}
	var threads []*threadState
	// Registered before the first session opens, so a failing NewClient
	// part-way through closes every session opened before it.
	defer func() {
		for _, ts := range threads {
			ts.client.Close()
		}
	}()
	for dc := 0; dc < ccfg.NumDCs; dc++ {
		for p := 0; p < ccfg.NumPartitions; p++ {
			for t := 0; t < cfg.ThreadsPerClient; t++ {
				client, err := cl.NewClient(dc, p)
				if err != nil {
					return Result{}, err
				}
				seed := cfg.Seed + int64(dc*100000+p*100+t)
				threads = append(threads, &threadState{
					client: client,
					gen:    cfg.Workload.NewGenerator(seed),
				})
			}
		}
	}

	var (
		latHist   = stats.NewHistogram()
		blockHist = stats.NewHistogram()
		committed stats.Counter
		blocked   stats.Counter
		errCount  stats.Counter
		inWindow  atomic.Bool
	)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, ts := range threads {
		wg.Add(1)
		go func(ts *threadState) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				plan := ts.gen.Next()
				start := time.Now()
				tx, err := ts.client.Begin()
				if err != nil {
					errCount.Inc()
					continue
				}
				if len(plan.ReadKeys) > 0 {
					if _, err := tx.Read(plan.ReadKeys...); err != nil {
						errCount.Inc()
						_ = tx.Abort()
						continue
					}
				}
				for _, w := range plan.Writes {
					_ = tx.Write(w.Key, w.Value)
				}
				if _, err := tx.Commit(); err != nil {
					errCount.Inc()
					continue
				}
				if inWindow.Load() {
					latHist.RecordDuration(time.Since(start))
					committed.Inc()
					if b := tx.Blocked(); b > 0 {
						blocked.Inc()
						blockHist.RecordDuration(b)
					}
				}
			}
		}(ts)
	}

	time.Sleep(cfg.Warmup)
	before := cl.Network().Obs().Snapshot()
	inWindow.Store(true)
	windowStart := time.Now()
	time.Sleep(cfg.Measure)
	inWindow.Store(false)
	window := time.Since(windowStart)
	after := cl.Network().Obs().Snapshot()
	traffic := func(name string) uint64 { return after.Get(name) - before.Get(name) }
	close(stop)
	wg.Wait()

	n := committed.Load()
	res := Result{
		Protocol:       ccfg.Protocol.String(),
		Threads:        len(threads),
		Committed:      n,
		Errors:         errCount.Load(),
		WindowSeconds:  window.Seconds(),
		Throughput:     float64(n) / window.Seconds(),
		MeanLatMs:      latHist.Mean() / 1000,
		P50LatMs:       float64(latHist.Percentile(50)) / 1000,
		P99LatMs:       float64(latHist.Percentile(99)) / 1000,
		ReplInterBytes: traffic("net.inter_bytes.replication"),
		StabBytes:      traffic("net.bytes.stabilization"),
	}
	if n > 0 {
		res.BlockedShare = float64(blocked.Load()) / float64(n)
	}
	if blocked.Load() > 0 {
		res.MeanBlockMs = blockHist.Mean() / 1000
		res.BlockedP99Ms = float64(blockHist.Percentile(99)) / 1000
	}
	return res, nil
}
