package cure

import (
	"path/filepath"
	"testing"
	"time"

	"wren/internal/hlc"
	"wren/internal/store/wal"
	"wren/internal/transport"
	"wren/internal/wire"
)

type respRecorder struct{ ch chan wire.Message }

func (r *respRecorder) HandleMessage(_ transport.NodeID, m wire.Message) { r.ch <- m }

// TestStopFlushesCommitAboveLocalClock guards Stop's durability flush for
// plain Cure: its apply upper bound follows the raw physical clock, so a
// commit timestamp assigned by a faster coordinator can sit above
// PhysicalNow() at shutdown — the final flush must apply it anyway.
func TestStopFlushesCommitAboveLocalClock(t *testing.T) {
	dir := t.TempDir()
	net := transport.NewMemory(transport.UniformLatency(50*time.Microsecond, time.Millisecond))
	defer net.Close()
	// A manual clock pinned near zero: every externally assigned commit
	// timestamp is "in the future" for this participant.
	src := hlc.NewManualSource(1000)
	srv, err := NewServer(ServerConfig{
		DC: 0, Partition: 0, NumDCs: 1, NumPartitions: 1,
		Network: net, ClockSource: src, UseHLC: false,
		ApplyInterval:  time.Hour,
		GossipInterval: time.Hour,
		GCInterval:     -1,
		StoreBackend:   "wal", DataDir: dir, FsyncPolicy: "always",
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	srv.Start()

	rec := &respRecorder{ch: make(chan wire.Message, 4)}
	recID := transport.ClientID(0, 1)
	net.Register(recID, rec)

	sv := []hlc.Timestamp{hlc.New(1000, 0)}
	if err := net.Send(recID, srv.ID(), &wire.PrepareReq{
		ReqID: 1, TxID: 1, SV: sv,
		Writes: []wire.KV{{Key: "future", Value: []byte("yes")}},
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-rec.ch:
	case <-time.After(5 * time.Second):
		t.Fatal("no PrepareResp")
	}
	// The coordinator's (faster) clock assigned a commit timestamp far
	// above this server's physical clock.
	ct := hlc.New(1_000_000, 0)
	if err := net.Send(recID, srv.ID(), &wire.CommitTx{TxID: 1, CT: ct}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if srv.CommitQueueLen() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("CommitTx never reached the commit list")
		}
		time.Sleep(time.Millisecond)
	}

	srv.Stop()

	eng, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "dc0-p0")})
	if err != nil {
		t.Fatalf("reopen wal: %v", err)
	}
	defer eng.Close()
	if v := eng.Latest("future"); v == nil || string(v.Value) != "yes" {
		t.Fatalf("commit above the local physical clock lost across shutdown: %+v", v)
	}
}
