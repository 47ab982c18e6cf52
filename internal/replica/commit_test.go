package replica

import (
	"bytes"
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"wren/internal/hlc"
	"wren/internal/store"
	"wren/internal/store/backend"
	"wren/internal/transport"
	"wren/internal/txlog"
	"wren/internal/wire"
)

// decideReq is a one-phase commit's request for the one write key=v.
func decideReq(txID uint64, key string) *wire.PrepareReq {
	return &wire.PrepareReq{ReqID: txID, TxID: txID, Writes: []wire.KV{{Key: key, Value: []byte("v")}}, Decide: true}
}

// versionsOf counts the versions of key that txID wrote.
func versionsOf(n *node, key string, txID uint64) int {
	count := 0
	n.st.ReadVisible(key, func(v *store.Version) bool {
		if v.TxID == txID {
			count++
		}
		return false
	})
	return count
}

// inLog reports whether the log holds txID as a prepare or a commit.
func inLog(l *txlog.Log, txID uint64) bool {
	for _, c := range l.Committed() {
		if c.TxID == txID {
			return true
		}
	}
	for _, p := range l.Prepared() {
		if p.TxID == txID {
			return true
		}
	}
	return false
}

// TestDecideDuplicateAnsweredOnce: a duplicated one-phase request for a
// decided transaction is answered with the same proposal and never
// prepared again, so the write is installed once.
func TestDecideDuplicateAnsweredOnce(t *testing.T) {
	net := newNet(t)
	n := newNode(t, net, 0, 0, 1, 1, nil)
	coord := transport.ClientID(0, 1)
	votes := endpoint(net, coord)

	id := n.NewTxID()
	for i := 0; i < 2; i++ {
		if err := net.Send(coord, n.ID(), decideReq(id, "k")); err != nil {
			t.Fatal(err)
		}
	}
	first, second := await[*wire.PrepareResp](t, votes), await[*wire.PrepareResp](t, votes)
	if first.Err != "" || first.PT == 0 || second.PT != first.PT || second.Err != "" {
		t.Fatalf("votes %+v and %+v, want the same commit twice", first, second)
	}
	n.ApplyTick()
	if got := versionsOf(n, "k", id); got != 1 {
		t.Fatalf("%d versions of the one-phase write installed, want 1", got)
	}
	if got := len(n.TxLog().Committed()); got != 1 {
		t.Fatalf("the log holds %d commits, want 1", got)
	}
}

// TestDecideFencedIdRefused: once a client's termination probe found
// nothing and fenced the id, a one-phase request for it is refused and
// nothing is prepared, logged or installed.
func TestDecideFencedIdRefused(t *testing.T) {
	net := newNet(t)
	n := newNode(t, net, 0, 0, 1, 1, nil)
	coord := transport.ClientID(0, 1)
	replies := endpoint(net, coord)

	id := n.NewTxID()
	if err := net.Send(coord, n.ID(), &wire.TxStatusReq{ReqID: 5, TxID: id}); err != nil {
		t.Fatal(err)
	}
	if st := await[*wire.TxStatusResp](t, replies); st.Committed {
		t.Fatalf("probe of an unknown id answered %+v, want not committed", st)
	}
	if err := net.Send(coord, n.ID(), decideReq(id, "k")); err != nil {
		t.Fatal(err)
	}
	if vote := await[*wire.PrepareResp](t, replies); vote.Err == "" || vote.PT != 0 {
		t.Fatalf("fenced id voted %+v, want a refusal", vote)
	}
	n.ApplyTick()
	if n.txApplied("k", id) || inLog(n.TxLog(), id) {
		t.Fatal("the fenced transaction was logged or installed")
	}
}

// durableNode is a node on the sst backend whose log syncs before every
// acknowledgement, with its cohort sync replaced by sync.
func durableNode(t *testing.T, net *transport.Memory, sync func(n *node, lsn int64)) (*node, string) {
	cfg := Config{NumDCs: 1, NumPartitions: 1, Network: net, StoreBackend: backend.SST,
		DataDir: t.TempDir(), FsyncPolicy: txlog.FsyncAlways}
	n := newNodeWith(t, net, cfg, nil)
	n.syncLog = func(lsn int64) { sync(n, lsn) }
	cfg.FillDefaults()
	return n, filepath.Join(cfg.EngineDir(), "txlog")
}

// TestDecideFailedSyncWithdraws: when the sync covering a one-phase
// cohort's PREPARE and COMMIT fails, the vote is a refusal, nothing is
// installed, and the log — in memory and as recovery reads it — no longer
// holds the transaction.
func TestDecideFailedSyncWithdraws(t *testing.T) {
	net := newNet(t)
	n, dir := durableNode(t, net, func(n *node, lsn int64) {
		n.TxLog().InjectFailure(errors.New("disk gone"))
	})
	coord := transport.ClientID(0, 1)
	votes := endpoint(net, coord)

	id := n.NewTxID()
	if err := net.Send(coord, n.ID(), decideReq(id, "k")); err != nil {
		t.Fatal(err)
	}
	if vote := await[*wire.PrepareResp](t, votes); vote.Err == "" || vote.PT != 0 {
		t.Fatalf("vote %+v after a failed sync, want a refusal", vote)
	}
	n.ApplyTick()
	if n.txApplied("k", id) || inLog(n.TxLog(), id) {
		t.Fatal("the withdrawn commit is installed or still in the log")
	}
	n.Stop()
	l, err := txlog.Open(txlog.Options{Dir: dir, NumDCs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if inLog(l, id) {
		t.Fatal("recovery replays the withdrawn commit")
	}
}

// TestDecideWaitsForSync: while the sync covering a one-phase cohort's
// records is pending, the cohort neither votes nor installs, and its
// proposal holds the apply bound; once the sync returns it does both.
func TestDecideWaitsForSync(t *testing.T) {
	net := newNet(t)
	release := make(chan struct{})
	var syncing atomic.Bool
	n, _ := durableNode(t, net, func(n *node, lsn int64) {
		syncing.Store(true)
		<-release
		n.TxLog().SyncTo(lsn)
	})
	coord := transport.ClientID(0, 1)
	votes := endpoint(net, coord)

	id := n.NewTxID()
	if err := net.Send(coord, n.ID(), decideReq(id, "k")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the cohort's sync", syncing.Load)
	n.ApplyTick()
	select {
	case m := <-votes:
		close(release)
		t.Fatalf("%T before the sync returned", m)
	case <-time.After(50 * time.Millisecond):
	}
	n.mu.Lock()
	pt := n.prepared[id].PT
	n.mu.Unlock()
	if n.txApplied("k", id) || n.VV.Load(0) >= pt {
		close(release)
		t.Fatalf("installed before the sync (VV[0] %v, proposal %v)", n.VV.Load(0), pt)
	}
	close(release)
	if vote := await[*wire.PrepareResp](t, votes); vote.Err != "" || vote.PT != pt {
		t.Fatalf("vote %+v after the sync, want PT %v", vote, pt)
	}
	n.ApplyTick()
	if !n.txApplied("k", id) {
		t.Fatal("not installed after the vote")
	}
}

// sendCounter counts the sends to one DC's servers.
type sendCounter struct {
	*transport.Memory
	dc    int
	sends atomic.Int64
}

func (c *sendCounter) Send(from, to transport.NodeID, m wire.Message) error {
	if to.DC == c.dc && !to.IsClient() {
		c.sends.Add(1)
	}
	return c.Memory.Send(from, to, m)
}

// TestDownStreamSkippedUntilTick: with DC 2 unreachable, the apply
// goroutine's ship gives up on its stream once, and makes no further
// attempt until a lifecycle tick rewinds it, while DC 1's stream carries
// every batch.
func TestDownStreamSkippedUntilTick(t *testing.T) {
	net := newNet(t)
	counter := &sendCounter{Memory: net, dc: 2}
	n := newNodeWith(t, net, Config{NumDCs: 3, NumPartitions: 1, Network: counter}, nil)
	dc1 := endpoint(net, transport.ServerID(1, 0))
	prepare, commit := asCoordinator(t, net, n)
	pass := func(key string) {
		id := n.NewTxID()
		commit(id, prepare(id, key))
		n.ApplyTick()
		n.ship(false)
	}
	// One SendBounded makes this many sends before it gives up.
	const perGiveUp = 4
	for tick := 1; tick <= 2; tick++ {
		for i := 0; i < 5; i++ {
			pass("k")
			await[*wire.Replicate](t, dc1)
		}
		if got := counter.sends.Load(); got > int64(tick*perGiveUp) {
			t.Fatalf("%d sends to unreachable DC 2 in %d lifecycle ticks, want at most %d (one SendBounded a tick)", got, tick-1, tick*perGiveUp)
		}
		n.lifecycleTick()
	}
}

// TestRewindBatchLen: a rewind's batches stay within the byte budget —
// and so within a frame — with large write sets, keep to the count bound
// with small ones, and never cut a commit timestamp's run.
func TestRewindBatchLen(t *testing.T) {
	big := bytes.Repeat([]byte("x"), 5<<20)
	rec := func(ct int64, value []byte) wire.ReplTx {
		return wire.ReplTx{TxID: uint64(ct), CT: hlc.Timestamp(ct), Writes: []wire.KV{{Key: "k", Value: value}}}
	}
	check := func(name string, recs []wire.ReplTx, wantBatches int) {
		t.Helper()
		batches := 0
		for rest := recs; len(rest) > 0; batches++ {
			n := rewindBatchLen(rest)
			if n < 1 || n > len(rest) {
				t.Fatalf("%s: batch of %d of %d records", name, n, len(rest))
			}
			if n < len(rest) && rest[n].CT == rest[n-1].CT {
				t.Fatalf("%s: a batch cut the run at %v", name, rest[n].CT)
			}
			size := wire.Size(&wire.Replicate{Txs: rest[:n]})
			if size > wire.MaxFrameLen {
				t.Fatalf("%s: a %d-byte batch, over the frame bound", name, size)
			}
			if size > resendBatchBytes && rest[0].CT != rest[n-1].CT {
				t.Fatalf("%s: a %d-byte batch of several timestamps, over the %d-byte budget", name, size, resendBatchBytes)
			}
			rest = rest[n:]
		}
		if batches != wantBatches {
			t.Fatalf("%s: %d batches, want %d", name, batches, wantBatches)
		}
	}

	var large []wire.ReplTx
	for ct := int64(1); ct <= 8; ct++ {
		large = append(large, rec(ct, big))
	}
	check("eight 5 MiB transactions", large, 3)

	// Four 5 MiB transactions at one timestamp pass the budget together,
	// in a batch of their own.
	run := []wire.ReplTx{rec(1, big), rec(2, big), rec(2, big), rec(2, big), rec(2, big), rec(3, big)}
	check("a 20 MiB run", run, 3)

	var small []wire.ReplTx
	for ct := int64(1); ct <= 300; ct++ {
		small = append(small, rec(ct, []byte("v")))
	}
	check("300 small transactions", small, 3)
}
