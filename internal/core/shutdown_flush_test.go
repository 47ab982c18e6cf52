package core

import (
	"path/filepath"
	"testing"
	"time"

	"wren/internal/hlc"
	"wren/internal/replica/replicatest"
	"wren/internal/store/wal"
	"wren/internal/transport"
	"wren/internal/wire"
)

// respRecorder captures the cohort's replies to a fake coordinator.
type respRecorder struct{ ch chan wire.Message }

func (r *respRecorder) HandleMessage(_ transport.NodeID, m wire.Message) { r.ch <- m }

// TestStopFlushesCommittedDespiteStuckPrepared guards the shutdown
// durability contract: a transaction on the commit list must reach the
// storage engine during Stop even when an unrelated prepared-but-never-
// committed transaction's proposed timestamp sits below its commit time
// (which would otherwise hold the apply upper bound under it forever).
func TestStopFlushesCommittedDespiteStuckPrepared(t *testing.T) {
	dir := t.TempDir()
	net := transport.NewMemory(transport.UniformLatency(50*time.Microsecond, time.Millisecond))
	defer net.Close()
	srv, err := NewServer(ServerConfig{
		DC: 0, Partition: 0, NumDCs: 1, NumPartitions: 1,
		Network: net,
		// Timers long enough that no tick helps: the held prepare below
		// leaves Stop's flush as the only pass that can apply the commit.
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
	send := func(m wire.Message) {
		t.Helper()
		if err := net.Send(recID, srv.ID(), m); err != nil {
			t.Fatalf("send %v: %v", m.Kind(), err)
		}
	}
	waitPT := func() hlc.Timestamp {
		t.Helper()
		select {
		case m := <-rec.ch:
			pr, ok := m.(*wire.PrepareResp)
			if !ok {
				t.Fatalf("unexpected reply %T", m)
			}
			return pr.PT
		case <-time.After(5 * time.Second):
			t.Fatal("no PrepareResp")
			return 0
		}
	}

	// Another transaction prepares first (lower proposed timestamp) and
	// stalls forever — its coordinator never sends CommitTx.
	replicatest.HoldApply(t, net, srv.ID())
	// Transaction 1 prepares later and commits at its proposed timestamp,
	// which is strictly above the stalled one's.
	send(&wire.PrepareReq{ReqID: 2, TxID: 1, Writes: []wire.KV{{Key: "durable", Value: []byte("yes")}}})
	pt := waitPT()
	send(&wire.CommitTx{TxID: 1, CT: pt})

	// Wait until the CommitTx lands on the commit list.
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

	// Reopen the WAL the server wrote: the acknowledged commit must have
	// been flushed; the never-committed prepared write must not exist.
	eng, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "dc0-p0")})
	if err != nil {
		t.Fatalf("reopen wal: %v", err)
	}
	defer eng.Close()
	if v := eng.Latest("durable"); v == nil || string(v.Value) != "yes" {
		t.Fatalf("acknowledged commit lost across shutdown: Latest(durable) = %+v", v)
	}
	if v := eng.Latest(replicatest.HeldKey); v != nil {
		t.Fatalf("never-committed prepared write leaked into the store: %+v", v)
	}
}
