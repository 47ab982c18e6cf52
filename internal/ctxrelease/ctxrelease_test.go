package ctxrelease

import (
	"sync"
	"testing"
	"time"

	"wren/internal/transport"
)

// recorder is a send function that counts explicit releases per id.
type recorder struct {
	mu   sync.Mutex
	sent map[uint64]int
	at   map[uint64]transport.NodeID
}

func newRecorder() *recorder {
	return &recorder{sent: make(map[uint64]int), at: make(map[uint64]transport.NodeID)}
}

func (r *recorder) send(coord transport.NodeID, txID uint64) {
	r.mu.Lock()
	r.sent[txID]++
	r.at[txID] = coord
	r.mu.Unlock()
}

func (r *recorder) count(txID uint64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sent[txID]
}

// await polls until txID was released explicitly exactly once.
func (r *recorder) await(t *testing.T, txID uint64, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for r.count(txID) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("transaction %d released %d times within %v, want 1", txID, r.count(txID), within)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReleaseRoutes(t *testing.T) {
	a, b := transport.ServerID(0, 0), transport.ServerID(0, 1)

	t.Run("grace expires", func(t *testing.T) {
		rec := newRecorder()
		r := New(rec.send)
		start := time.Now()
		r.Defer(a, 1)
		rec.await(t, 1, 10*Grace)
		if waited := time.Since(start); waited < Grace {
			t.Fatalf("released after %v, before the grace period of %v ended", waited, Grace)
		}
		if got := r.Take(a); got != 0 {
			t.Fatalf("Take after the explicit release = %d, want 0", got)
		}
	})

	t.Run("next begin on the same coordinator", func(t *testing.T) {
		rec := newRecorder()
		r := New(rec.send)
		r.Defer(a, 2)
		if got := r.Take(a); got != 2 {
			t.Fatalf("Take = %d, want 2", got)
		}
		time.Sleep(2 * Grace)
		if n := rec.count(2); n != 0 {
			t.Fatalf("a piggybacked release was also sent explicitly %d times", n)
		}
		// The attempt failed: its owner hands the id back.
		r.Now(a, 2)
		rec.await(t, 2, time.Second)
	})

	t.Run("next begin elsewhere", func(t *testing.T) {
		rec := newRecorder()
		r := New(rec.send)
		r.Defer(a, 3)
		if got := r.Take(b); got != 0 {
			t.Fatalf("Take on another coordinator = %d, want 0", got)
		}
		rec.await(t, 3, time.Second)
		if rec.at[3] != a {
			t.Fatalf("released at %v, want %v", rec.at[3], a)
		}
	})

	t.Run("flush", func(t *testing.T) {
		rec := newRecorder()
		r := New(rec.send)
		r.Flush() // nothing waiting, no timer yet
		r.Defer(a, 4)
		r.Flush()
		rec.await(t, 4, time.Second)
		time.Sleep(2 * Grace)
		if n := rec.count(4); n != 1 {
			t.Fatalf("released %d times, want 1", n)
		}
	})
}

// TestReleaseExactlyOnceAroundGrace runs sessions whose next Begin lands
// right around the end of the grace period, so Take races the timer's
// firing: every transaction must leave by exactly one route.
func TestReleaseExactlyOnceAroundGrace(t *testing.T) {
	coord := transport.ServerID(0, 0)
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rec := newRecorder()
			r := New(rec.send)
			piggybacked := make(map[uint64]bool)
			const n = 40
			for i := uint64(1); i <= n; i++ {
				r.Defer(coord, i)
				time.Sleep(Grace - 200*time.Microsecond + time.Duration(s*100)*time.Microsecond)
				if got := r.Take(coord); got != 0 {
					if got != i {
						t.Errorf("Take = %d, want %d", got, i)
					}
					piggybacked[got] = true
				}
			}
			time.Sleep(2 * Grace)
			for i := uint64(1); i <= n; i++ {
				sent := rec.count(i)
				if piggybacked[i] && sent != 0 || !piggybacked[i] && sent != 1 {
					t.Errorf("transaction %d: piggybacked=%v, explicit releases=%d", i, piggybacked[i], sent)
				}
			}
		}(s)
	}
	wg.Wait()
}
