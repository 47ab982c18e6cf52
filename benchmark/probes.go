package main

// Isolated probes: single layers exercised directly through their public
// functions with workload-shaped inputs, outside any deployment. They run
// after the traced window, when nothing else is using the processors.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"wren/internal/fanin"
	"wren/internal/hlc"
	"wren/internal/store"
	"wren/internal/store/backend"
	"wren/internal/transport"
	"wren/internal/transport/tcp"
	"wren/internal/txlog"
	"wren/internal/wire"
)

// timeOp returns the mean duration in nanoseconds and the mean number of
// heap allocations of fn over n calls.
func timeOp(n int, fn func()) (ns, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(took.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// probeCache runs the probes once per process: their results do not depend
// on the workload, so a process that traces several workloads reuses them.
type probeCache struct {
	results metricSet
}

// fill copies the probe results into m. div divides every iteration count
// (10 under -quick).
func (c *probeCache) fill(m metricSet, tmp string, quick bool) error {
	if c.results == nil {
		div := 1
		if quick {
			div = 10
		}
		results := newMetricSet(perLayer)
		if err := probeAll(results, tmp, div); err != nil {
			return err
		}
		c.results = results
	}
	for name, v := range c.results {
		if v.N > 0 {
			m[name] = v
		}
	}
	return nil
}

func probeAll(m metricSet, tmp string, div int) error {
	probeWire(m, div)
	probeSmall(m, div)
	if err := probeEcho(m, div); err != nil {
		return fmt.Errorf("tcp echo probe: %w", err)
	}
	dir, err := os.MkdirTemp(tmp, "wren-bench-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := probeStore(m, dir, div); err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	if err := probeTxlog(m, dir, div); err != nil {
		return fmt.Errorf("txlog probe: %w", err)
	}
	return nil
}

// probeWire encodes and decodes the three messages that carry the bulk of
// the workloads' bytes: read_mem's read reply, commit_durable's commit
// request and geo_visibility's replication batch.
func probeWire(m metricSet, div int) {
	items := make([]wire.Item, 20)
	for i := range items {
		items[i] = wire.Item{Key: fmt.Sprintf("user%08d", i), Value: make([]byte, 8), UT: 1 << 40, RDT: 1 << 39, TxID: uint64(i)}
	}
	kvs := func(n, size int) []wire.KV {
		out := make([]wire.KV, n)
		for i := range out {
			out[i] = wire.KV{Key: fmt.Sprintf("user%08d", i), Value: make([]byte, size)}
		}
		return out
	}
	repl := &wire.Replicate{Partition: 1, Prev: 1 << 40, Txs: make([]wire.ReplTx, 64)}
	for i := range repl.Txs {
		repl.Txs[i] = wire.ReplTx{TxID: uint64(i), CT: 1 << 40, RST: 1 << 39, Writes: kvs(4, 8)}
	}
	shapes := []wire.Message{
		&wire.TxReadResp{ReqID: 1, Items: items},
		&wire.CommitReq{ReqID: 1, TxID: 2, HWT: 1 << 40, Writes: kvs(4, 1024)},
		repl,
	}
	for i, msg := range shapes {
		enc := wire.NewEncoder()
		n := 20000 / div
		ns, _ := timeOp(n, func() {
			enc.Reset()
			wire.EncodeInto(enc, msg)
		})
		m.set("wire.encode_ns."+wireShapes[i], ns, int64(n))
		payload := slices.Clone(enc.Bytes())
		ns, allocs := timeOp(n, func() {
			if _, err := wire.Decode(msg.Kind(), payload); err != nil {
				panic(err) // the bytes were produced by the encoder a few lines up
			}
		})
		m.set("wire.decode_ns."+wireShapes[i], ns, int64(n))
		m.set("wire.decode_allocs."+wireShapes[i], allocs, int64(n))
	}
}

// probeSmall times the two primitives every read crosses: folding a slice
// reply into a read's fan-in, and reading the hybrid clock.
func probeSmall(m metricSet, div int) {
	items := make([]wire.Item, 10)
	n := 100000 / div
	ns, _ := timeOp(n, func() {
		fi := fanin.Start(transport.ClientID(0, 1), 1, 1)
		fi.Fold(items, 0)
		fi.Finish() // coordinator's own contribution
		if resp, _, last := fi.Finish(); last {
			wire.PutTxReadResp(resp)
		}
	})
	m.set("fanin.fold_ns_per_item", ns/float64(len(items)), int64(n))
	clock := hlc.NewClock(hlc.SystemSource{})
	ns, _ = timeOp(n, func() { clock.Now() })
	m.set("hlc.now_ns", ns, int64(n))
}

// probeEcho bounces a 64-byte message between two tcp.Networks on loopback.
func probeEcho(m metricSet, div int) error {
	addrs, err := reserveAddrs(1)
	if err != nil {
		return err
	}
	l := addrs[0]
	a, b := transport.ServerID(0, 0), transport.ClientID(0, 1)
	srv, err := tcp.New(tcp.Config{Self: a, ListenAddr: l})
	if err != nil {
		return err
	}
	defer srv.Close()
	cli, err := tcp.New(tcp.Config{Self: b, Peers: map[transport.NodeID]string{a: l}})
	if err != nil {
		return err
	}
	defer cli.Close()
	msg := &wire.TxReadReq{ReqID: 1, TxID: 2, Keys: []string{"user00000001", "user00000002", "user00000003", "user00000004"}}
	for wire.Size(msg) < 64 {
		msg.Keys[3] += "x"
	}
	back := make(chan struct{}, 1)
	srv.Register(a, transport.HandlerFunc(func(from transport.NodeID, m wire.Message) { _ = srv.Send(a, from, m) }))
	cli.Register(b, transport.HandlerFunc(func(transport.NodeID, wire.Message) { back <- struct{}{} }))
	n := 3000 / div
	rtts := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := cli.Send(b, a, msg); err != nil {
			return err
		}
		select {
		case <-back:
		case <-time.After(5 * time.Second):
			return fmt.Errorf("no echo after 5s")
		}
		rtts = append(rtts, float64(time.Since(start).Nanoseconds())/1e3)
	}
	m.set("tcp.echo_rtt_us", median(rtts), int64(n))
	return nil
}

// probeStore reads and writes each backend directly with the shape of the
// workload that uses it: 8-byte values in memory, 1 KiB values spread over
// several runs in sst.
func probeStore(m metricSet, dir string, div int) error {
	for _, name := range probeBackends {
		keys, size := 2000, 8
		if name == backend.SST {
			keys, size = 16384, 1024
		}
		e, err := backend.Open(backend.Options{Backend: name, DataDir: filepath.Join(dir, "store-"+name), Fsync: "never"})
		if err != nil {
			return err
		}
		all := make([]string, keys)
		for i := range all {
			all[i] = fmt.Sprintf("user%08d", i)
		}
		const batch = 8
		puts := 0
		start := time.Now()
		for lo := 0; lo < keys; lo += batch {
			kvs := make([]store.KV, batch)
			for i := range kvs {
				kvs[i] = store.KV{Key: all[lo+i], Version: &store.Version{Value: make([]byte, size), UT: hlc.Timestamp(lo + i + 1), TxID: uint64(lo)}}
			}
			e.PutBatch(kvs)
			puts += batch
		}
		m.set("store.put_ns_per_version."+name, float64(time.Since(start).Nanoseconds())/float64(puts), int64(puts))
		if f, ok := e.(interface{ Flush() error }); ok {
			if err := f.Flush(); err != nil {
				e.Close()
				return err
			}
		}
		visible := func(*store.Version) bool { return true }
		r := rng{s: 1}
		var out []*store.Version
		reads := 20000 / div
		ns, allocs := timeOp(reads, func() {
			lo := r.intn(keys - batch)
			out = e.ReadVisibleBatchInto(all[lo:lo+batch], visible, out)
		})
		m.set("store.read_ns_per_key."+name, ns/batch, int64(reads*batch))
		m.set("store.read_allocs_per_key."+name, allocs/batch, int64(reads*batch))
		if err := e.Close(); err != nil {
			return err
		}
	}
	return nil
}

// probeTxlog times what an acknowledged commit waits for at fsync=always: a
// prepare record and a synced coordinator decision, from one caller and
// from eight at once (where decision batching has something to batch).
func probeTxlog(m metricSet, dir string, div int) error {
	writes := make([]wire.KV, 4)
	for i := range writes {
		writes[i] = wire.KV{Key: fmt.Sprintf("user%08d", i), Value: make([]byte, 1024)}
	}
	var txID uint64
	for _, callers := range []int{1, 8} {
		l, err := txlog.Open(txlog.Options{Dir: filepath.Join(dir, fmt.Sprintf("txlog-%d", callers)), NumDCs: 1, Fsync: "always"})
		if err != nil {
			return err
		}
		perCaller := 150 / div
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < callers; c++ {
			wg.Add(1)
			base := txID + uint64(c*perCaller)
			go func() {
				defer wg.Done()
				for i := uint64(1); i <= uint64(perCaller); i++ {
					l.LogPrepare(&txlog.PreparedTx{TxID: base + i, PT: hlc.Timestamp(base + i), Writes: writes})
					l.LogCoordCommitSync(base+i, hlc.Timestamp(base+i), []uint16{0})
				}
			}()
		}
		wg.Wait()
		took := time.Since(start)
		txID += uint64(callers * perCaller)
		if err := l.Healthy(); err != nil {
			l.Close()
			return err
		}
		name := "txlog.commit_sync_us"
		if callers > 1 {
			name += "_x8"
		}
		// Per commit as a caller sees it: the callers wait side by side.
		m.set(name, float64(took.Microseconds())/float64(perCaller), int64(callers*perCaller))
		if callers == 1 {
			if fi, err := os.Stat(filepath.Join(dir, "txlog-1", "commit.log")); err == nil {
				m.set("txlog.bytes_per_commit", float64(fi.Size())/float64(perCaller), int64(perCaller))
			}
		}
		if err := l.Close(); err != nil {
			return err
		}
	}
	return nil
}
