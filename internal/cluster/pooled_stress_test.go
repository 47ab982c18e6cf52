package cluster

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"wren/internal/core"
	"wren/internal/replica"
	"wren/internal/transport"
)

// TestPooledPipeliningStress funnels many sessions through a SINGLE pooled
// link under chaos drops and duplicates, with a deliberately small
// per-connection admission bound so the server sheds under the pile-up.
// Every session writes values carrying its own identity and immediately
// reads them back, so the test catches the two ways a multiplexed
// connection can go wrong:
//
//   - cross-session leakage: a response (or chaos duplicate) delivered to
//     the wrong session would surface another session's value — the
//     session-id check fails;
//   - lost ordering or lost requests: within one session a commit
//     overtaking its own reads, or a shed request silently vanishing,
//     breaks read-your-writes — the monotone iteration check fails or the
//     run deadlocks instead of finishing.
//
// Run with -race: the demux path (striped pending map, recycled waiter
// channels, admission counters) is exactly what the detector should see
// hammered.
func TestPooledPipeliningStress(t *testing.T) {
	cl, err := New(Config{
		Protocol:        Wren,
		NumDCs:          1,
		NumPartitions:   2,
		IntraDCLatency:  50 * time.Microsecond,
		ClientPoolLinks: 1,                                     // every session pipelines over ONE link
		Server:          replica.Config{MaxInflightPerConn: 4}, // force admission sheds
		RequestTimeout:  2 * time.Second,
		RetryAttempts:   10,
		RetryBackoff:    time.Millisecond,
		Seed:            7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Network().SetClientRule(0, transport.Rule{DropProb: 0.02, DupProb: 0.05})

	const sessions = 12
	const iters = 25
	var wg sync.WaitGroup
	errCh := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			client, err := cl.NewClient(0, s%2)
			if err != nil {
				errCh <- err
				return
			}
			defer client.Close()
			key := fmt.Sprintf("stress-%d", s)
			lastCommitted := -1
			for i := 0; i < iters; i++ {
				val := fmt.Sprintf("s%d-i%d", s, i)
				tx, err := client.Begin()
				if err != nil {
					errCh <- fmt.Errorf("session %d: begin: %w", s, err)
					return
				}
				got, err := tx.Read(key)
				if err != nil {
					errCh <- fmt.Errorf("session %d: read: %w", s, err)
					return
				}
				if raw, okRead := got[key]; okRead && raw != nil {
					sid, idx, perr := parseStressValue(string(raw))
					if perr != nil {
						errCh <- fmt.Errorf("session %d: %w", s, perr)
						return
					}
					if sid != s {
						errCh <- fmt.Errorf("session %d read session %d's value %q — response leaked across sessions", s, sid, raw)
						return
					}
					if idx < lastCommitted {
						errCh <- fmt.Errorf("session %d: read own write %d after committing %d — lost read-your-writes", s, idx, lastCommitted)
						return
					}
				} else if lastCommitted >= 0 {
					errCh <- fmt.Errorf("session %d: own committed write vanished (last committed iteration %d)", s, lastCommitted)
					return
				}
				if err := tx.Write(key, []byte(val)); err != nil {
					errCh <- fmt.Errorf("session %d: write: %w", s, err)
					return
				}
				if _, err := tx.Commit(); err != nil {
					// A fenced abort is the retry machinery resolving a
					// lost commit response: the transaction provably did
					// NOT land, so the session continues without counting
					// the iteration. Anything else is a real failure.
					if errors.Is(err, core.ErrAborted) {
						continue
					}
					errCh <- fmt.Errorf("session %d: commit: %w", s, err)
					return
				}
				lastCommitted = i
			}
		}(s)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("stress run wedged: some request never resolved")
	}
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	// The pool must drain completely: an entry left in the pending map is
	// a request that never resolved.
	if p := cl.ClientPool(0); p != nil {
		if n := p.Pending(); n != 0 {
			t.Fatalf("pool leaks %d pending entries after drain", n)
		}
		t.Logf("pool stats: %+v, server sheds: %d, chaos: %v",
			p.Stats(), cl.Sum("admission.shed"), cl.Network().Obs().Snapshot())
	} else {
		t.Fatal("cluster built no pool despite ClientPoolLinks=1")
	}
}

func parseStressValue(v string) (session, iter int, err error) {
	var rest string
	var ok bool
	if rest, ok = strings.CutPrefix(v, "s"); !ok {
		return 0, 0, fmt.Errorf("malformed stress value %q", v)
	}
	sid, idx, ok := strings.Cut(rest, "-i")
	if !ok {
		return 0, 0, fmt.Errorf("malformed stress value %q", v)
	}
	if session, err = strconv.Atoi(sid); err != nil {
		return 0, 0, fmt.Errorf("malformed stress value %q", v)
	}
	if iter, err = strconv.Atoi(idx); err != nil {
		return 0, 0, fmt.Errorf("malformed stress value %q", v)
	}
	return session, iter, nil
}
