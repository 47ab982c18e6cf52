package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWrenGCFloorCoversRemoteSnapshot pins the version-GC floor of a
// geo-replicated Wren deployment: a version replicated from another DC
// becomes visible by the REMOTE snapshot time, which lags the local one,
// so a floor taken from the local time alone lets a GC pass keep only a
// version no reader can see yet — and the key reads as absent until the
// remote time catches up. A writer in DC 0 keeps overwriting a marker pair
// (one key per partition) and a set of preloaded keys while GC runs every
// few milliseconds in DC 1; readers there must never read a loaded key as
// absent, and always see both markers from the same transaction.
func TestWrenGCFloorCoversRemoteSnapshot(t *testing.T) {
	cfg := fastConfig(Wren, 2, 2)
	cfg.Server.StoreBackend = "memory"
	cfg.Server.GCInterval = 2 * time.Millisecond
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	keys := []string{keyOwnedBy("gcfloor-m", 0, 2), keyOwnedBy("gcfloor-m", 1, 2)}
	for i := 0; i < 6; i++ {
		keys = append(keys, fmt.Sprintf("gcfloor-k%d", i))
	}
	writer, err := cl.NewClient(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	write := func(seq int) error {
		tx, err := writer.Begin()
		if err != nil {
			return err
		}
		for _, k := range keys {
			if err := tx.Write(k, []byte(fmt.Sprint(seq))); err != nil {
				return err
			}
		}
		_, err = tx.Commit()
		return err
	}
	if err := write(0); err != nil {
		t.Fatal(err)
	}

	readAll := func(c Client) (map[string][]byte, error) {
		tx, err := c.Begin()
		if err != nil {
			return nil, err
		}
		got, err := tx.Read(keys...)
		if err != nil {
			return nil, err
		}
		_, err = tx.Commit()
		return got, err
	}
	// Wait until the load is visible in DC 1; from then on absence is a bug.
	probe, err := cl.NewClient(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		got, err := readAll(probe)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == len(keys) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("load never became visible in DC 1: %d of %d keys", len(got), len(keys))
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seq := 1; !stop.Load(); seq++ {
			if err := write(seq); err != nil {
				errs <- err
				return
			}
		}
	}()
	for r := 0; r < 2; r++ {
		c, err := cl.NewClient(1, r)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.Close()
			for !stop.Load() {
				got, err := readAll(c)
				if err != nil {
					errs <- err
					return
				}
				for _, k := range keys {
					if got[k] == nil {
						errs <- fmt.Errorf("key %q read as absent after it was loaded", k)
						return
					}
				}
				if string(got[keys[0]]) != string(got[keys[1]]) {
					errs <- fmt.Errorf("markers from different transactions: %s vs %s", got[keys[0]], got[keys[1]])
					return
				}
			}
		}()
	}
	time.Sleep(1500 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if cl.WrenServer(1, 0).Obs().Value("gc.removed") == 0 {
		t.Fatal("GC never removed a version in DC 1: the test did not exercise the floor")
	}
}
