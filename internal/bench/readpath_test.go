package bench

import (
	"encoding/json"
	"testing"
	"time"
)

// TestReadPathSuiteSmoke runs a miniature read-path sweep and asserts the
// structural acceptance criterion of the contention-free read path: the
// runtime mutex profile contains NO contention sample on a plain
// sync.Mutex inside the server read handlers. After the refactor those
// handlers own no plain mutex at all (atomic stable times, RWMutex-striped
// request maps, per-read fan-in locks only in response handlers), so any
// such sample is a regression — on CI's multi-core runners this bites.
func TestReadPathSuiteSmoke(t *testing.T) {
	o := SmokeOptions()
	o.DCs = 2
	o.Partitions = 2
	o.Warmup = 150 * time.Millisecond
	o.Measure = 400 * time.Millisecond
	o.KeysPerPartition = 100

	rep, err := RunReadPath(o, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(ReadPathWorkloads) {
		t.Fatalf("got %d rows, want %d", len(rep.Rows), len(ReadPathWorkloads))
	}
	for _, row := range rep.Rows {
		if row.Committed == 0 {
			t.Errorf("workload %s x%d committed nothing", row.Workload, row.Threads)
		}
		if row.Errors > 0 {
			t.Errorf("workload %s x%d had %d errors", row.Workload, row.Threads, row.Errors)
		}
	}
	if !rep.Mutex.Clean() {
		t.Fatalf("read path contended a server-wide mutex: %d samples, first stack:\n%s",
			rep.Mutex.ReadPathSamples, rep.Mutex.ReadPathFootprint)
	}
	data, err := rep.WriteJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back ReadPathReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
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
