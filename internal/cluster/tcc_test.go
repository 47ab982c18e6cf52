package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"wren/internal/checker"
)

// tccHarness drives a cluster with checker-instrumented writers and
// readers, optionally under network-partition chaos, and verifies that the
// observed history is TCC-clean and that replicas converge.
type tccHarness struct {
	t       *testing.T
	cl      *Cluster
	chk     *checker.Checker
	allKeys []string
	byOwner map[string][]string
}

func newTCCHarness(t *testing.T, proto Protocol, dcs, parts int) *tccHarness {
	t.Helper()
	cfg := fastConfig(proto, dcs, parts)
	cfg.ClockSkew = time.Millisecond
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	h := &tccHarness{
		t:       t,
		cl:      cl,
		chk:     checker.New(),
		byOwner: make(map[string][]string),
	}
	// One writer session per DC, each owning a handful of keys.
	for dc := 0; dc < dcs; dc++ {
		owner := fmt.Sprintf("w%d", dc)
		for j := 0; j < 5; j++ {
			k := fmt.Sprintf("tcc-%d-%d", dc, j)
			h.byOwner[owner] = append(h.byOwner[owner], k)
			h.allKeys = append(h.allKeys, k)
		}
	}
	return h
}

// runWriter performs checker-instrumented write transactions (and
// occasional cross-owner reads, creating inter-session causal edges) until
// stop closes.
func (h *tccHarness) runWriter(dc int, stop <-chan struct{}, wg *sync.WaitGroup, errs chan<- error) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		owner := fmt.Sprintf("w%d", dc)
		own := h.byOwner[owner]
		client, err := h.cl.NewClient(dc, 0)
		if err != nil {
			errs <- err
			return
		}
		defer client.Close()
		rng := rand.New(rand.NewSource(int64(dc) + 42))
		for {
			select {
			case <-stop:
				return
			default:
			}

			// Occasionally read a random mix of keys to pick up causal
			// dependencies on other writers.
			if rng.Intn(4) == 0 {
				if err := h.snapshotRead(client, owner, rng); err != nil {
					errs <- err
					return
				}
			}

			// Write 1-3 of the session's own keys atomically.
			n := 1 + rng.Intn(3)
			keys := make([]string, 0, n)
			seen := map[string]bool{}
			for len(keys) < n {
				k := own[rng.Intn(len(own))]
				if !seen[k] {
					seen[k] = true
					keys = append(keys, k)
				}
			}
			wt := h.chk.WriteTx(owner, keys)
			tx, err := client.Begin()
			if err != nil {
				errs <- err
				return
			}
			for k, v := range wt.Values() {
				if err := tx.Write(k, v); err != nil {
					errs <- err
					return
				}
			}
			if _, err := tx.Commit(); err != nil {
				errs <- err
				return
			}
			wt.Committed()
		}
	}()
}

// runReader performs checker-instrumented snapshot reads until stop closes.
func (h *tccHarness) runReader(dc, idx int, stop <-chan struct{}, wg *sync.WaitGroup, errs chan<- error) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		session := fmt.Sprintf("r%d-%d", dc, idx)
		client, err := h.cl.NewClient(dc, idx%h.cl.Config().NumPartitions)
		if err != nil {
			errs <- err
			return
		}
		defer client.Close()
		rng := rand.New(rand.NewSource(int64(dc*100+idx) + 7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := h.snapshotRead(client, session, rng); err != nil {
				errs <- err
				return
			}
		}
	}()
}

// snapshotRead reads a random subset of all keys in one transaction and
// feeds the observations to the checker.
func (h *tccHarness) snapshotRead(client Client, session string, rng *rand.Rand) error {
	n := 2 + rng.Intn(5)
	if n > len(h.allKeys) {
		n = len(h.allKeys)
	}
	keys := make([]string, 0, n)
	seen := map[string]bool{}
	for len(keys) < n {
		k := h.allKeys[rng.Intn(len(h.allKeys))]
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	tx, err := client.Begin()
	if err != nil {
		return err
	}
	got, err := tx.Read(keys...)
	if err != nil {
		_ = tx.Abort()
		return err
	}
	if _, err := tx.Commit(); err != nil {
		return err
	}
	rt := h.chk.ReadTx(session)
	for _, k := range keys {
		rt.Observe(k, got[k])
	}
	rt.Close()
	return nil
}

// verifyConvergence waits until every replica of every key agrees.
func (h *tccHarness) verifyConvergence(timeout time.Duration) {
	h.t.Helper()
	cfg := h.cl.Config()
	deadline := time.Now().Add(timeout)
	for {
		diverged := ""
		for _, key := range h.allKeys {
			p := partitionOf(key, cfg.NumPartitions)
			var want string
			for dc := 0; dc < cfg.NumDCs; dc++ {
				var got string
				if cfg.Protocol == Wren {
					if v := h.cl.WrenServer(dc, p).Store().Latest(key); v != nil {
						got = string(v.Value)
					}
				} else {
					if v := h.cl.CureServer(dc, p).Store().Latest(key); v != nil {
						got = string(v.Value)
					}
				}
				if dc == 0 {
					want = got
				} else if got != want {
					diverged = fmt.Sprintf("key %q: DC0=%q DC%d=%q", key, want, dc, got)
				}
			}
		}
		if diverged == "" {
			return
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("replicas did not converge: %s", diverged)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// runTCCWorkload is the shared body of the conformance tests.
func runTCCWorkload(t *testing.T, proto Protocol, dcs, parts int, duration time.Duration, chaos bool) {
	h := newTCCHarness(t, proto, dcs, parts)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 64)

	for dc := 0; dc < dcs; dc++ {
		h.runWriter(dc, stop, &wg, errs)
		h.runReader(dc, 1, stop, &wg, errs)
		h.runReader(dc, 2, stop, &wg, errs)
	}

	if chaos {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(99))
			for {
				select {
				case <-stop:
					// Heal everything on exit.
					for a := 0; a < dcs; a++ {
						for b := a + 1; b < dcs; b++ {
							h.cl.Network().Heal(a, b)
							h.cl.Network().Heal(b, a)
						}
					}
					return
				default:
				}
				a, b := rng.Intn(dcs), rng.Intn(dcs)
				if a == b {
					continue
				}
				h.cl.Network().Cut(a, b)
				h.cl.Network().Cut(b, a)
				time.Sleep(time.Duration(20+rng.Intn(60)) * time.Millisecond)
				h.cl.Network().Heal(a, b)
				h.cl.Network().Heal(b, a)
				time.Sleep(time.Duration(10+rng.Intn(30)) * time.Millisecond)
			}
		}()
	}

	timer := time.NewTimer(duration)
	select {
	case err := <-errs:
		close(stop)
		wg.Wait()
		t.Fatalf("workload error: %v", err)
	case <-timer.C:
	}
	close(stop)
	wg.Wait()

	if err := h.chk.Err(); err != nil {
		t.Fatalf("TCC violations detected:\n%v", err)
	}
	h.verifyConvergence(15 * time.Second)
}

func TestTCCConformanceWren(t *testing.T) {
	runTCCWorkload(t, Wren, 2, 4, 1500*time.Millisecond, false)
}

func TestTCCConformanceCure(t *testing.T) {
	runTCCWorkload(t, Cure, 2, 4, 1200*time.Millisecond, false)
}

func TestTCCConformanceHCure(t *testing.T) {
	runTCCWorkload(t, HCure, 2, 4, 1200*time.Millisecond, false)
}

func TestTCCConformanceWrenSingleDC(t *testing.T) {
	runTCCWorkload(t, Wren, 1, 4, time.Second, false)
}

func TestTCCChaosWren(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	runTCCWorkload(t, Wren, 3, 2, 2500*time.Millisecond, true)
}

func TestTCCChaosCure(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	runTCCWorkload(t, Cure, 3, 2, 2*time.Second, true)
}
