package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wren/internal/replica"
)

// TestReadPathStress hammers the lock-free read path with concurrent
// transactional reads while commits, replication applies, BiST gossip and
// aggressive GC churn the same servers — on both storage engines and all
// three protocols. Run under -race in CI, it is the structural guard for
// the contention-free read path: the atomic stable-time publication,
// striped request maps, completion-counter fan-ins and pooled messages all
// get exercised against every writer-side code path at once.
func TestReadPathStress(t *testing.T) {
	variants := []struct {
		name    string
		proto   Protocol
		backend string
	}{
		{"wren-memory", Wren, "memory"},
		{"wren-sst", Wren, "sst"},
		{"cure-memory", Cure, "memory"},
		{"hcure-sst", HCure, "sst"},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			stressReadPath(t, v.proto, v.backend)
		})
	}
}

func stressReadPath(t *testing.T, proto Protocol, backendName string) {
	cl, err := New(Config{
		Protocol:       proto,
		NumDCs:         2,
		NumPartitions:  2,
		InterDCLatency: 2 * time.Millisecond,
		ClockSkew:      500 * time.Microsecond,
		Server: replica.Config{
			ApplyInterval:  time.Millisecond,
			GossipInterval: time.Millisecond,
			GCInterval:     5 * time.Millisecond, // aggressive: GC races every read
			StoreBackend:   backendName,
		},
		Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Key pool spread across both partitions.
	const numKeys = 32
	keys := make([]string, numKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("stress%04d", i)
	}
	seedClient, err := cl.NewClient(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := seedClient.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if err := tx.Write(k, []byte("seed0000")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	seedClient.Close()
	// Let the seed replicate so remote readers don't race pure absence.
	time.Sleep(50 * time.Millisecond)

	const (
		readers  = 3
		writers  = 2
		deleters = 1
		duration = 700 * time.Millisecond
	)
	var (
		wg        sync.WaitGroup
		stop      = make(chan struct{})
		readOps   atomic.Uint64
		writeOps  atomic.Uint64
		failures  atomic.Uint64
		badValues atomic.Uint64
	)
	fail := func(format string, args ...any) {
		if failures.Add(1) < 5 {
			t.Errorf(format, args...)
		}
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			client, err := cl.NewClient(r%cl.Config().NumDCs, -1)
			if err != nil {
				fail("reader client: %v", err)
				return
			}
			defer client.Close()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx, err := client.Begin()
				if err != nil {
					fail("reader begin: %v", err)
					return
				}
				batch := []string{
					keys[i%numKeys], keys[(i+7)%numKeys],
					keys[(i+13)%numKeys], keys[(i+21)%numKeys],
				}
				vals, err := tx.Read(batch...)
				if err != nil {
					fail("read: %v", err)
					_ = tx.Abort()
					return
				}
				for k, v := range vals {
					// Every live value in this workload is exactly 8 bytes;
					// anything else means a torn or misrouted read.
					if len(v) != 8 {
						badValues.Add(1)
						fail("key %s: bad value %q", k, v)
					}
				}
				if _, err := tx.Commit(); err != nil {
					fail("reader commit: %v", err)
					return
				}
				readOps.Add(1)
				i++
			}
		}(r)
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client, err := cl.NewClient(w%cl.Config().NumDCs, -1)
			if err != nil {
				fail("writer client: %v", err)
				return
			}
			defer client.Close()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx, err := client.Begin()
				if err != nil {
					fail("writer begin: %v", err)
					return
				}
				val := []byte(fmt.Sprintf("w%02dv%04d", w, i%10000))
				_ = tx.Write(keys[(w*11+i)%numKeys], val)
				_ = tx.Write(keys[(w*11+i+5)%numKeys], val)
				if _, err := tx.Commit(); err != nil {
					fail("writer commit: %v", err)
					return
				}
				writeOps.Add(1)
				i++
			}
		}(w)
	}

	for d := 0; d < deleters; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client, err := cl.NewClient(0, -1)
			if err != nil {
				fail("deleter client: %v", err)
				return
			}
			defer client.Close()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Delete a key, then immediately rewrite it, so readers race
				// tombstones and GC races tombstone-only chains.
				k := keys[numKeys-1-(i%4)]
				tx, err := client.Begin()
				if err != nil {
					fail("deleter begin: %v", err)
					return
				}
				_ = tx.Delete(k)
				if _, err := tx.Commit(); err != nil {
					fail("delete commit: %v", err)
					return
				}
				tx, err = client.Begin()
				if err != nil {
					fail("deleter begin2: %v", err)
					return
				}
				_ = tx.Write(k, []byte("reborn00"))
				if _, err := tx.Commit(); err != nil {
					fail("rewrite commit: %v", err)
					return
				}
				i++
				time.Sleep(time.Millisecond)
			}
		}()
	}

	time.Sleep(duration)
	close(stop)
	wg.Wait()

	if failures.Load() > 0 {
		t.Fatalf("%d operations failed (%d bad values)", failures.Load(), badValues.Load())
	}
	if readOps.Load() == 0 || writeOps.Load() == 0 {
		t.Fatalf("stress made no progress: reads=%d writes=%d", readOps.Load(), writeOps.Load())
	}
	// No engine may have recorded a write-path failure under the churn: a
	// silently-frozen engine log would otherwise survive until Close.
	if err := cl.EnginesHealthy(); err != nil {
		t.Fatalf("storage engine degraded during stress: %v", err)
	}
	t.Logf("%s: %d read txs, %d write txs, GC racing every 5ms", cl.Config().Protocol, readOps.Load(), writeOps.Load())
}
