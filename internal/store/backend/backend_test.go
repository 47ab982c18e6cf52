package backend

import (
	"testing"

	"wren/internal/store"
	"wren/internal/store/sst"
	"wren/internal/store/wal"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name, backend, dir string
		wantErr            bool
	}{
		{"default", "", "", false},
		{"memory", Memory, "", false},
		{"wal with dir", WAL, "/tmp/x", false},
		{"wal without dir", WAL, "", true},
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

	weng, err := Open(Options{Backend: WAL, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := weng.(*wal.Engine); !ok {
		t.Errorf("wal backend opened %T, want *wal.Engine", weng)
	}
	if weng.NumShards() != store.DefaultShards {
		t.Errorf("NumShards = %d, want %d", weng.NumShards(), store.DefaultShards)
	}
	_ = weng.Close()

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

	if _, err := Open(Options{Backend: WAL}); err == nil {
		t.Error("wal backend without DataDir should fail to open")
	}
	if _, err := Open(Options{Backend: SST}); err == nil {
		t.Error("sst backend without DataDir should fail to open")
	}
	if _, err := Open(Options{Backend: "rocksdb"}); err == nil {
		t.Error("unknown backend should fail to open")
	}
	// Engines never sync on their own: "never" is the only policy there is.
	if _, err := Open(Options{Backend: WAL, DataDir: t.TempDir(), Fsync: "always"}); err == nil {
		t.Error("an engine fsync policy other than never should fail to open")
	}
	if e, err := Open(Options{Backend: SST, DataDir: t.TempDir(), Fsync: "never"}); err != nil {
		t.Errorf("Fsync never: %v", err)
	} else {
		_ = e.Close()
	}
}

// TestCrossEngineDirRejected: a data directory created by one durable
// engine must be refused by the other — each ignores the other's files,
// so adopting the directory would silently serve empty state (and two
// live engines would interleave writes into one directory).
func TestCrossEngineDirRejected(t *testing.T) {
	for _, c := range []struct{ first, second string }{{WAL, SST}, {SST, WAL}} {
		t.Run(c.first+"-then-"+c.second, func(t *testing.T) {
			dir := t.TempDir()
			eng, err := Open(Options{Backend: c.first, DataDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			eng.Put("k", &store.Version{Value: []byte("v"), UT: 1})

			// While the first engine is live, the shared lock rejects the
			// second regardless of type.
			if _, err := Open(Options{Backend: c.second, DataDir: dir}); err == nil {
				t.Fatalf("%s opened a directory locked by a live %s engine", c.second, c.first)
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			// After a clean close, the engine-type marker still refuses the
			// mismatched engine...
			if _, err := Open(Options{Backend: c.second, DataDir: dir}); err == nil {
				t.Fatalf("%s adopted a closed %s data directory", c.second, c.first)
			}
			// ...while the original type reopens and recovers fine.
			re, err := Open(Options{Backend: c.first, DataDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if got := re.Latest("k"); got == nil || string(got.Value) != "v" {
				t.Fatalf("recovered Latest = %+v, want v", got)
			}
			_ = re.Close()
		})
	}
}
