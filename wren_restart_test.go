package wren

import (
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestClusterRestartRecovery is the acceptance test for the durable
// backend: a cluster stopped and restarted from the same data directory
// must serve every transaction committed before the stop — and deletes
// must stay deleted. A data directory the retired wal engine left is not
// recovered: the restart refuses it and leaves it as it was.
func TestClusterRestartRecovery(t *testing.T) {
	t.Run("sst", testClusterRestartRecovery)
	t.Run("wal", testRestartRefusesWALDir)
}

// testRestartRefusesWALDir: restarting over the data directory of a
// deployment that ran the retired wal engine must fail loudly, whether the
// restart asks for sst (which would otherwise serve the empty state it
// finds there) or still names wal, and must not change a byte of it.
func testRestartRefusesWALDir(t *testing.T) {
	dataDir := t.TempDir()
	for p := 0; p < 2; p++ {
		dir := filepath.Join(dataDir, fmt.Sprintf("dc0-p%d", p))
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, body := range map[string]string{
			"store.lock":      "",
			"store.engine":    "wal\n",
			"wal.meta":        "shards=64\n",
			"shard-00000.log": fmt.Sprintf("records partition %d wrote\n", p),
		} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	// snapshot maps every path under dataDir to its contents ("/" for a
	// directory).
	snapshot := func() map[string]string {
		files := map[string]string{}
		err := filepath.WalkDir(dataDir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				files[path] = "/"
				return nil
			}
			b, err := os.ReadFile(path)
			files[path] = string(b)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	before := snapshot()

	for _, c := range []struct{ backend, want string }{
		{"sst", `created by the "wal" engine`},
		{"wal", `unknown store backend "wal"`},
	} {
		cfg := Config{NumDCs: 1, NumPartitions: 2, StoreBackend: c.backend, DataDir: dataDir, FsyncPolicy: "always"}
		cl, err := NewCluster(cfg)
		if err == nil {
			cl.Close()
			t.Fatalf("a %s cluster started over a wal data directory", c.backend)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s restart: %v, want %s", c.backend, err, c.want)
		}
		if after := snapshot(); !maps.Equal(after, before) {
			t.Fatalf("the refused %s restart changed the data directory:\n got %q\nwant %q", c.backend, after, before)
		}
	}
}

func testClusterRestartRecovery(t *testing.T) {
	dataDir := t.TempDir()
	cfg := Config{
		NumDCs:        1,
		NumPartitions: 2,
		StoreBackend:  "sst",
		DataDir:       dataDir,
		FsyncPolicy:   "always",
	}

	want := map[string]string{}
	// First life: commit a handful of transactions spread over both
	// partitions, including an overwrite and a delete.
	func() {
		cl, err := NewCluster(cfg)
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		defer cl.Close()
		client, err := cl.Client(0)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()

		for i := 0; i < 8; i++ {
			tx, err := client.Begin()
			if err != nil {
				t.Fatal(err)
			}
			k, v := fmt.Sprintf("key-%d", i), fmt.Sprintf("val-%d", i)
			if err := tx.Write(k, []byte(v)); err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Commit(); err != nil {
				t.Fatalf("commit %s: %v", k, err)
			}
			want[k] = v
		}
		// Overwrite one key and delete another.
		tx, err := client.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Write("key-0", []byte("val-0-updated")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Delete("key-1"); err != nil {
			t.Fatal(err)
		}
		ct, err := tx.Commit()
		if err != nil {
			t.Fatal(err)
		}
		want["key-0"] = "val-0-updated"
		delete(want, "key-1")

		// Wait until the last commit is applied (and therefore logged)
		// before stopping; Close then flushes the rest.
		deadline := time.Now().Add(10 * time.Second)
		for !cl.LocalUpdateVisible(0, "key-0", ct) {
			if time.Now().After(deadline) {
				t.Fatal("final commit did not become visible before shutdown")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Second life: reopen from the same directory and read it all back.
	verify := func(life string) {
		cl, err := NewCluster(cfg)
		if err != nil {
			t.Fatalf("%s NewCluster: %v", life, err)
		}
		defer cl.Close()
		client, err := cl.Client(0)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()

		keys := make([]string, 0, len(want)+1)
		for k := range want {
			keys = append(keys, k)
		}
		keys = append(keys, "key-1") // the deleted key: must stay absent

		// The restarted servers' stable times start at zero and catch up
		// with the clock within a few protocol ticks; retry until the
		// recovered state is inside the snapshot.
		deadline := time.Now().Add(10 * time.Second)
		for {
			tx, err := client.Begin()
			if err != nil {
				t.Fatal(err)
			}
			got, err := tx.Read(keys...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			ok := len(got) == len(want)
			for k, v := range want {
				if string(got[k]) != v {
					ok = false
				}
			}
			if _, resurrected := got["key-1"]; resurrected {
				t.Fatalf("%s: deleted key-1 resurrected with %q", life, got["key-1"])
			}
			if ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: recovered state incomplete: got %d/%d keys: %v", life, len(got), len(want), got)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	verify("first restart")
	// A third life proves post-recovery appends land in the same logs.
	verify("second restart")
}

// TestClusterMemoryBackendForgets pins the baseline the durable backend
// fixes: the default memory backend starts empty after a restart.
func TestClusterMemoryBackendForgets(t *testing.T) {
	cfg := Config{NumDCs: 1, NumPartitions: 1}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	client, err := cl.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := client.Begin()
	_ = tx.Write("k", []byte("v"))
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	client.Close()
	cl.Close()

	cl2, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	client2, err := cl2.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close()
	tx2, _ := client2.Begin()
	got, err := tx2.Read("k")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got["k"]; ok {
		t.Error("memory backend served a value across restarts; expected amnesia")
	}
}
