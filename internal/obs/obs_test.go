package obs

import (
	"slices"
	"sync"
	"testing"
)

func TestRegistry(t *testing.T) {
	r := New("test")
	c := r.Counter("b.count")
	if r.Counter("b.count") != c {
		t.Fatal("two owners asking for one name got different counters")
	}
	c.Add(3)
	var g uint64 = 7
	r.Func("a.gauge", func() uint64 { return g })
	s := r.Snapshot()
	want := Snapshot{{"a.gauge", 7}, {"b.count", 3}}
	if !slices.Equal(s, want) {
		t.Fatalf("Snapshot = %v, want %v", s, want)
	}
	if s.Get("b.count") != 3 || s.Get("missing") != 0 {
		t.Fatalf("Get: b.count %d, missing %d", s.Get("b.count"), s.Get("missing"))
	}
	g = 9
	if got := r.Value("a.gauge"); got != 9 {
		t.Fatalf("Value(a.gauge) = %d, want 9 (read when asked)", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Value of a name never registered did not panic")
		}
	}()
	r.Value("missing")
}

func TestEvents(t *testing.T) {
	evs, cancel := Subscribe("x.happened")
	New("core dc0/p1").Event("x.happened", "err", "disk gone")
	(*Registry)(nil).Event("x.happened", "dir", "/d")
	New("core dc0/p1").Event("y.other")
	cancel()
	New("core dc0/p1").Event("x.happened")

	var got []string
	for len(evs) > 0 {
		got = append(got, (<-evs).String())
	}
	want := []string{"core dc0/p1: x.happened err=disk gone", "x.happened dir=/d"}
	if !slices.Equal(got, want) {
		t.Fatalf("events = %q, want %q", got, want)
	}
}

// TestConcurrentUse: counters, snapshots, events and subscriptions from
// several goroutines at once (run under -race).
func TestConcurrentUse(t *testing.T) {
	r := New("test")
	c := r.Counter("n")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				if i%100 == 0 {
					evs, cancel := Subscribe("tick")
					r.Event("tick")
					r.Func("g", func() uint64 { return uint64(len(evs)) })
					_ = r.Snapshot()
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Value("n"); got != 4000 {
		t.Fatalf("n = %d, want 4000", got)
	}
}
