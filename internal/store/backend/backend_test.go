package backend

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wren/internal/store"
	"wren/internal/store/sst"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name, backend, dir string
		wantErr            bool
	}{
		{"default", "", "", false},
		{"memory", Memory, "", false},
		{"sst with dir", SST, "/tmp/x", false},
		{"sst without dir", SST, "", true},
		{"unknown", "rocksdb", "/tmp/x", true},
	}
	for _, c := range cases {
		if err := Validate(c.backend, c.dir); (err != nil) != c.wantErr {
			t.Errorf("%s: Validate(%q,%q) = %v, wantErr=%v", c.name, c.backend, c.dir, err, c.wantErr)
		}
	}
}

func TestOpenSelectsEngine(t *testing.T) {
	eng, err := Open(Options{Backend: ""})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.(*store.MemoryEngine); !ok {
		t.Errorf("default backend opened %T, want *store.MemoryEngine", eng)
	}
	if eng.NumShards() != store.DefaultShards {
		t.Errorf("NumShards = %d, want %d", eng.NumShards(), store.DefaultShards)
	}
	_ = eng.Close()

	seng, err := Open(Options{Backend: SST, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := seng.(*sst.Engine); !ok {
		t.Errorf("sst backend opened %T, want *sst.Engine", seng)
	}
	if seng.NumShards() != store.DefaultShards {
		t.Errorf("NumShards = %d, want %d", seng.NumShards(), store.DefaultShards)
	}
	_ = seng.Close()

	if _, err := Open(Options{Backend: SST}); err == nil {
		t.Error("sst backend without DataDir should fail to open")
	}
	if _, err := Open(Options{Backend: "rocksdb"}); err == nil {
		t.Error("unknown backend should fail to open")
	}
	// Engines never sync on their own: "never" is the only policy there is.
	if _, err := Open(Options{Backend: SST, DataDir: t.TempDir(), Fsync: "always"}); err == nil {
		t.Error("an engine fsync policy other than never should fail to open")
	}
	if e, err := Open(Options{Backend: SST, DataDir: t.TempDir(), Fsync: "never"}); err != nil {
		t.Errorf("Fsync never: %v", err)
	} else {
		_ = e.Close()
	}
}

// TestCrossEngineDirRejected: a data directory left by the retired "wal"
// engine must be refused by sst, not adopted. sst ignores the old engine's
// files, so adopting the directory would silently serve empty state. The
// refusal must leave every file as it was. The other way round, the old
// name is no backend any more: it opens nothing, and the sst directory it
// was pointed at reopens and recovers as before.
func TestCrossEngineDirRejected(t *testing.T) {
	t.Run("wal-then-sst", func(t *testing.T) {
		dir := t.TempDir()
		old := map[string]string{
			"store.lock":      "",
			"store.engine":    "wal\n",
			"wal.meta":        "shards=64\n",
			"shard-00000.log": "records the wal engine wrote\n",
		}
		for name, body := range old {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}

		eng, err := Open(Options{Backend: SST, DataDir: dir})
		if err == nil {
			_ = eng.Close()
			t.Fatal("sst adopted a data directory the wal engine created")
		}
		if !strings.Contains(err.Error(), `created by the "wal" engine`) {
			t.Fatalf("Open = %v, want the engine-type marker's refusal", err)
		}

		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != len(old) {
			t.Errorf("the refused directory holds %d entries, want the %d it had", len(entries), len(old))
		}
		for _, ent := range entries {
			want, ok := old[ent.Name()]
			got, err := os.ReadFile(filepath.Join(dir, ent.Name()))
			if !ok || err != nil || !bytes.Equal(got, []byte(want)) {
				t.Errorf("%s changed under the refused Open: %q, %v", ent.Name(), got, err)
			}
		}
	})

	t.Run("sst-then-wal", func(t *testing.T) {
		dir := t.TempDir()
		eng, err := Open(Options{Backend: SST, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		eng.Put("k", &store.Version{Value: []byte("v"), UT: 1})
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}

		const unknown = `unknown store backend "wal"`
		if err := Validate("wal", dir); err == nil || !strings.Contains(err.Error(), unknown) {
			t.Errorf(`Validate("wal") = %v, want %s`, err, unknown)
		}
		if e, err := Open(Options{Backend: "wal", DataDir: dir}); err == nil || !strings.Contains(err.Error(), unknown) {
			if e != nil {
				_ = e.Close()
			}
			t.Errorf(`Open("wal") = %v, want %s`, err, unknown)
		}

		re, err := Open(Options{Backend: SST, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if got := re.Latest("k"); got == nil || string(got.Value) != "v" {
			t.Fatalf("recovered Latest = %+v, want v", got)
		}
	})
}
