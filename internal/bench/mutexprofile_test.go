package bench

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"wren/internal/cluster"
	"wren/internal/ycsb"
)

// The mutex-profile gate is the paper's nonblocking claim at code level:
// a read handler never unlocks a plain sync.Mutex. No other harness makes
// this check, so it lives here as a test over the one closed loop
// (Preload + RunLoadPoint); throughput and latency of the read path are
// the benchmark of record's business (benchmark/, workload read_mem).

// MutexReport summarizes the runtime mutex profile captured across the
// gate's load points. ReadPathSamples counts contention events on a plain
// sync.Mutex inside the server read handlers (handleStartTx, handleTxRead,
// handleSliceReq, readSlice) — the footprint of the old design, where every
// read serialized on the server-wide mutex. It must be zero: the read path
// owns no plain mutex at all. Two contention sources are excluded
// deliberately because they are not server-wide: striped RWMutexes (store
// shards, request maps — per-stripe, and read-locks only contend with
// writers) and the transport's own per-link locks (the in-memory link
// queue under s.send, which any handler — old or new design — pays).
type MutexReport struct {
	CyclesPerSecond   int64
	TotalSamples      int
	ReadPathSamples   int
	ReadPathDelayMs   float64
	ReadPathFootprint string // first offending stack, for diagnosis
}

// Clean reports whether the read path showed zero server-wide mutex
// contention.
func (m *MutexReport) Clean() bool { return m.ReadPathSamples == 0 }

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

// ParseMutexProfile classifies a debug=1 mutex profile dump.
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

// TestReadHandlersTakeNoPlainMutex drives the closed loop over three mixes
// that bracket the read path — reads-only (nothing but the read path), 95:5
// (the paper's default) and 50:50 (heavy write interference, where a read
// path that shares locks with the commit/apply pipeline collapses) — with
// runtime mutex profiling on, and asserts the structural acceptance
// criterion of the contention-free read path: the profile contains NO
// contention sample on a plain sync.Mutex inside the server read handlers.
// Those handlers own no plain mutex at all (atomic stable times,
// RWMutex-striped request maps, per-read fan-in locks only in response
// handlers), so any such sample is a regression — on CI's multi-core
// runners this bites.
func TestReadHandlersTakeNoPlainMutex(t *testing.T) {
	o := SmokeOptions()
	o.DCs = 2
	o.Partitions = 2
	o.Warmup = 150 * time.Millisecond
	o.Measure = 400 * time.Millisecond
	o.KeysPerPartition = 100

	prev := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(prev)

	for _, mix := range []ycsb.Mix{ycsb.Mix100, ycsb.Mix95, ycsb.Mix50} {
		// One fresh Wren cluster per mix: Preload, then one load point.
		serie, err := sweepOne(o, cluster.Wren, mix, o.Partitions, o.DCs, o.Partitions, []int{2})
		if err != nil {
			t.Fatalf("workload %s: %v", mix.Name(), err)
		}
		for _, res := range serie.Points {
			if res.Committed == 0 {
				t.Errorf("workload %s committed nothing", mix.Name())
			}
			if res.Errors > 0 {
				t.Errorf("workload %s had %d errors", mix.Name(), res.Errors)
			}
		}
	}

	rep, err := CaptureMutexProfile()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("read path contended a server-wide mutex: %d samples, first stack:\n%s",
			rep.ReadPathSamples, rep.ReadPathFootprint)
	}
}

func TestParseMutexProfile(t *testing.T) {
	const sample = `--- mutex:
cycles/second=1000000000
sampling period=1
5000000 2 @ 0x44a5fd 0x477892
#	0x44a5fc	sync.(*Mutex).Unlock+0x7c	/usr/local/go/src/sync/mutex.go:223
#	0x477891	wren/internal/core.(*Server).applyTick+0x51	/root/repo/internal/core/server.go:900
2000000 1 @ 0x44a5fd 0x479999
#	0x44a5fc	sync.(*Mutex).Unlock+0x7c	/usr/local/go/src/sync/mutex.go:223
#	0x479998	wren/internal/core.(*Server).handleSliceReq+0x20	/root/repo/internal/core/server.go:600
3000000 1 @ 0x44a5fd 0x479999 0x47aaaa
#	0x44a5fc	sync.(*RWMutex).RUnlock+0x30	/usr/local/go/src/sync/rwmutex.go:100
#	0x479998	wren/internal/store.(*Store).ReadVisibleBatchInto+0x88	/root/repo/internal/store/store.go:280
#	0x47aaa9	wren/internal/core.(*Server).handleSliceReq+0x20	/root/repo/internal/core/server.go:600
4000000 1 @ 0x44a5fd 0x479999 0x47bbbb
#	0x44a5fc	sync.(*Mutex).Unlock+0x7c	/usr/local/go/src/sync/mutex.go:223
#	0x479998	wren/internal/transport.(*link).enqueue+0x40	/root/repo/internal/transport/transport.go:380
#	0x47bbba	wren/internal/core.(*Server).handleSliceReq+0x20	/root/repo/internal/core/server.go:600
6000000 3 @ 0x44a5fd 0x479999 0x47cccc 0x47dddd
#	0x44a5fc	sync.(*Mutex).Unlock+0x7c	/usr/local/go/src/sync/mutex.go:223
#	0x479998	wren/internal/core.(*Server).handleTxRead+0x51	/root/repo/internal/core/server.go:560
#	0x47cccb	wren/internal/core.(*Server).HandleMessage+0x30	/root/repo/internal/core/server.go:480
#	0x47dddc	wren/internal/transport.(*link).run+0x88	/root/repo/internal/transport/transport.go:461
1000000 1 @ 0x44a5fd 0x44b000 0x479999
#	0x44a5fc	sync.(*Mutex).Unlock+0x7c	/usr/local/go/src/sync/mutex.go:223
#	0x44afff	sync.(*Pool).pinSlow+0x90	/usr/local/go/src/sync/pool.go:241
#	0x479998	wren/internal/core.(*Server).handleTxRead+0x51	/root/repo/internal/core/server.go:560
`
	rep := ParseMutexProfile(sample)
	if rep.CyclesPerSecond != 1000000000 {
		t.Fatalf("cycles/second = %d", rep.CyclesPerSecond)
	}
	if rep.TotalSamples != 6 {
		t.Fatalf("total samples = %d, want 6", rep.TotalSamples)
	}
	// Sample 1: plain mutex but not in a read handler — excluded.
	// Sample 2: plain mutex inside handleSliceReq — the regression, counted.
	// Sample 3: striped RWMutex read-lock under a handler — excluded.
	// Sample 4: the transport's per-link queue mutex under s.send (transport
	// frame LEAFWARD of the handler) — excluded: per-link, not server-wide.
	// Sample 5: a plain mutex owned by handleTxRead itself, delivered on a
	// transport goroutine (transport frame ROOTWARD of the handler) — the
	// old server-wide design's exact footprint; MUST be counted, since every
	// handler runs on a transport delivery goroutine.
	// Sample 6: the runtime's sync.Pool registration lock under a handler's
	// Pool.Get — excluded: taken once per P and pool, not a server lock.
	if rep.ReadPathSamples != 2 {
		t.Fatalf("read-path samples = %d, want 2", rep.ReadPathSamples)
	}
	if rep.ReadPathDelayMs != 8.0 {
		t.Fatalf("read-path delay = %.2fms, want 8.00", rep.ReadPathDelayMs)
	}
	if rep.Clean() {
		t.Fatal("report with a read-path sample must not be Clean")
	}
}
