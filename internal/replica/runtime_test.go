package replica

import (
	"errors"
	"testing"
	"time"

	"wren/internal/hlc"
	"wren/internal/obs"
	"wren/internal/sharding"
	"wren/internal/store"
	"wren/internal/store/backend"
	"wren/internal/transport"
	"wren/internal/txlog"
	"wren/internal/wire"
)

// fakeProto is the smallest Protocol a runtime serves through: the HLC is
// the version clock, a version carries only its commit time, and there is
// no stabilization exchange and no snapshot. Like core and cure, it routes
// the two 2PC entry points, CommitReq and PrepareReq, to the runtime.
type fakeProto struct{ rt *Runtime }

func appendPuts(dst []store.KV, txID uint64, ct hlc.Timestamp, srcDC uint8, writes []wire.KV, skip SkipFunc) []store.KV {
	for _, kv := range writes {
		if skip == nil || !skip(kv.Key, txID) {
			dst = append(dst, store.KV{Key: kv.Key, Version: &store.Version{
				Value: kv.VersionValue(), UT: ct, TxID: txID, SrcDC: srcDC}})
		}
	}
	return dst
}

func (p *fakeProto) AppendLocalPuts(dst []store.KV, t *txlog.CommittedTx, skip SkipFunc) []store.KV {
	return appendPuts(dst, t.TxID, t.CT, uint8(p.rt.cfg.DC), t.Writes, skip)
}

func (p *fakeProto) AppendRemotePuts(dst []store.KV, srcDC uint8, t *wire.ReplTx, skip SkipFunc) []store.KV {
	return appendPuts(dst, t.TxID, t.CT, srcDC, t.Writes, skip)
}

func (p *fakeProto) ReplTxRecord(t *txlog.CommittedTx) wire.ReplTx {
	return wire.ReplTx{TxID: t.TxID, CT: t.CT, Writes: t.Writes}
}

func (p *fakeProto) ApplyBound() hlc.Timestamp                  { return p.rt.Clock.Update(0) }
func (p *fakeProto) ObserveCommitTS(ct hlc.Timestamp)           { p.rt.Clock.Update(ct) }
func (*fakeProto) AfterInstall()                                {}
func (*fakeProto) StampStable(*wire.Stab)                       {}
func (*fakeProto) ObserveStable(int, wire.Stab)                 {}
func (*fakeProto) GossipTick()                                  {}
func (*fakeProto) OldestActiveSnapshot(time.Time) hlc.Timestamp { return 0 }
func (*fakeProto) BeforeCommitReply(hlc.Timestamp) bool         { return true }
func (*fakeProto) OnStop(bool)                                  {}
func (p *fakeProto) HandleMessage(from transport.NodeID, m wire.Message) {
	switch msg := m.(type) {
	case *wire.CommitReq:
		p.rt.Commit(from, msg, func() *wire.PrepareReq { return &wire.PrepareReq{} })
	case *wire.PrepareReq:
		p.rt.Prepare(from, msg, msg.HT)
	}
}

// newNet returns a zero-latency simulated network closed after the test,
// once every runtime on it has stopped.
func newNet(t *testing.T) *transport.Memory {
	net := transport.NewMemory(nil)
	t.Cleanup(net.Close)
	return net
}

// node is one runtime under test on the memory backend. It is registered
// behind a tap instead of Start, so no loop runs: every apply pass,
// release barrier and tick happens where the test calls it. The tap
// reports each message on handled once the runtime has handled it; a
// message hold selects goes to held unhandled, for the test to deliver.
// Both channels are buffered far past the dozen messages a test sees, so
// a tap never blocks a link; one that fills drops instead.
type node struct {
	*Runtime
	handled, held chan wire.Message
}

func newNode(t *testing.T, net *transport.Memory, dc, partition, numDCs, numPartitions int, hold func(wire.Message) bool) *node {
	t.Helper()
	cfg := Config{DC: dc, Partition: partition, NumDCs: numDCs, NumPartitions: numPartitions, Network: net}
	cfg.FillDefaults()
	if err := cfg.Validate("test"); err != nil {
		t.Fatal(err)
	}
	proto := &fakeProto{}
	r, err := New("test", cfg, proto)
	if err != nil {
		t.Fatal(err)
	}
	proto.rt = r
	t.Cleanup(r.Stop)
	n := &node{Runtime: r, handled: make(chan wire.Message, 256), held: make(chan wire.Message, 256)}
	net.Register(r.ID(), transport.HandlerFunc(func(from transport.NodeID, m wire.Message) {
		ch := n.handled
		if hold != nil && hold(m) {
			ch = n.held
		} else {
			r.HandleMessage(from, m)
		}
		select {
		case ch <- m:
		default:
		}
	}))
	return n
}

// endpoint registers a bare node that collects what it receives, buffered
// like a node's taps.
func endpoint(net *transport.Memory, id transport.NodeID) chan wire.Message {
	ch := make(chan wire.Message, 256)
	net.Register(id, transport.HandlerFunc(func(_ transport.NodeID, m wire.Message) {
		select {
		case ch <- m:
		default:
		}
	}))
	return ch
}

// await returns the next message of type T on ch, skipping the others.
func await[T wire.Message](t *testing.T, ch <-chan wire.Message) T {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case m := <-ch:
			if v, ok := m.(T); ok {
				return v
			}
		case <-deadline:
			var zero T
			t.Fatalf("no %T within 10s", zero)
			return zero
		}
	}
}

// keyOn returns a key partition p of n owns.
func keyOn(p, n int) string {
	for k := "k"; ; k += "k" {
		if sharding.PartitionOf(k, n) == p {
			return k
		}
	}
}

// TestCommitDecisionResolvedByAcks: a commit across two partitions is
// prepared on both, its decision is logged before the client hears of it,
// and the decision stays logged until BOTH cohorts' CommitAcks arrive.
func TestCommitDecisionResolvedByAcks(t *testing.T) {
	net := newNet(t)
	isAck := func(m wire.Message) bool { _, ok := m.(*wire.CommitAck); return ok }
	coord := newNode(t, net, 0, 0, 1, 2, isAck)
	cohort := newNode(t, net, 0, 1, 1, 2, nil)
	client := transport.ClientID(0, 1)
	replies := endpoint(net, client)

	k0, k1 := keyOn(0, 2), keyOn(1, 2)
	txID := coord.NewTxID()
	writes := []wire.KV{{Key: k0, Value: []byte("a")}, {Key: k1, Value: []byte("b")}}
	if err := net.Send(client, coord.ID(), &wire.CommitReq{ReqID: 7, TxID: txID, Writes: writes}); err != nil {
		t.Fatal(err)
	}
	resp := await[*wire.CommitResp](t, replies)
	if resp.ReqID != 7 || resp.Code != wire.CommitOK || resp.CT == 0 {
		t.Fatalf("CommitResp %+v, want a commit", resp)
	}
	if ct, ok := coord.TxLog().CoordDecision(txID); !ok || ct != resp.CT {
		t.Fatalf("decision after the ack: (%v, %v), want (%v, true)", ct, ok, resp.CT)
	}

	acks := []*wire.CommitAck{await[*wire.CommitAck](t, coord.held), await[*wire.CommitAck](t, coord.held)}
	if acks[0].Partition == acks[1].Partition {
		t.Fatalf("both CommitAcks from partition %d", acks[0].Partition)
	}
	coord.HandleMessage(transport.ServerID(0, int(acks[0].Partition)), acks[0])
	if _, ok := coord.TxLog().CoordDecision(txID); !ok {
		t.Fatal("one of two CommitAcks resolved the decision")
	}
	coord.HandleMessage(transport.ServerID(0, int(acks[1].Partition)), acks[1])
	if _, ok := coord.TxLog().CoordDecision(txID); ok {
		t.Fatal("the decision is still pending after both cohorts' CommitAcks")
	}

	// Each cohort acked after taking the commit: a pass installs it.
	for _, c := range []struct {
		n   *node
		key string
	}{{coord, k0}, {cohort, k1}} {
		c.n.ApplyTick()
		if !c.n.txApplied(c.key, txID) {
			t.Fatalf("partition %d did not install %q", c.n.cfg.Partition, c.key)
		}
	}
}

// replBatch is an ordinary one-transaction batch from DC 1, partition 0.
func replBatch(prev, ct hlc.Timestamp, key string) *wire.Replicate {
	return &wire.Replicate{SrcDC: 1, Partition: 0, Prev: prev,
		Txs: []wire.ReplTx{{TxID: uint64(ct), CT: ct, Writes: []wire.KV{{Key: key, Value: []byte("v")}}}}}
}

// TestReplicateGapRefused: a batch whose predecessor (Prev) is above the
// receiver's watermark is neither applied nor acknowledged; the chain from
// the start is, and its acknowledgement is the first the sender gets.
func TestReplicateGapRefused(t *testing.T) {
	net := newNet(t)
	n := newNode(t, net, 0, 0, 2, 1, nil)
	sender := transport.ServerID(1, 0)
	acks := endpoint(net, sender)

	// The batch ending at 10 was lost; the one chained behind it arrives.
	if err := net.Send(sender, n.ID(), replBatch(10, 20, "after-gap")); err != nil {
		t.Fatal(err)
	}
	await[*wire.Replicate](t, n.handled)
	if n.txApplied("after-gap", 20) || n.VV.Load(1) != 0 {
		t.Fatalf("a batch past a gap was applied (VV[1] = %v)", n.VV.Load(1))
	}
	n.release()

	if err := net.Send(sender, n.ID(), replBatch(0, 10, "first")); err != nil {
		t.Fatal(err)
	}
	await[*wire.Replicate](t, n.handled)
	if !n.txApplied("first", 10) || n.VV.Load(1) != 10 {
		t.Fatalf("the in-order batch was not applied (VV[1] = %v)", n.VV.Load(1))
	}
	n.release()
	if ack := await[*wire.ReplicateAck](t, acks); ack.UpTo != 10 || ack.Resync {
		t.Fatalf("first ReplicateAck %+v, want UpTo 10: the refused batch was acknowledged", ack)
	}
}

// TestResyncAckLiftsCursorPin: while a restart's re-sent tail is
// unconfirmed, acknowledgements of newer traffic cannot move the
// replication cursor past the tail's pin; the tail's own Resync ack lifts
// the pin, and ordinary acks advance the cursor again.
func TestResyncAckLiftsCursorPin(t *testing.T) {
	net := newNet(t)
	n := newNode(t, net, 0, 0, 2, 1, nil)
	peer := transport.ServerID(1, 0)
	// What New does for a restarted server whose tail to DC 1 ends at 100.
	n.TxLog().PinResync(1, 100)

	for _, step := range []struct {
		upTo   hlc.Timestamp
		resync bool
		want   hlc.Timestamp
	}{
		{200, false, 100},
		{250, false, 100},
		{100, true, 100},
		{300, false, 300},
	} {
		ack := &wire.ReplicateAck{DC: 1, Partition: 0, UpTo: step.upTo, Resync: step.resync}
		if err := net.Send(peer, n.ID(), ack); err != nil {
			t.Fatal(err)
		}
		await[*wire.ReplicateAck](t, n.handled)
		if got := n.TxLog().Cursor(1); got != step.want {
			t.Fatalf("after %+v: cursor %v, want %v", ack, got, step.want)
		}
	}
}

// TestDegradedTxLogRefusesWrites: a server whose transaction log is
// degraded votes Err on a prepare without registering it, and refuses a
// commit it coordinates with CommitErrReadOnly before any cohort is asked
// to prepare — even when every cohort is healthy.
func TestDegradedTxLogRefusesWrites(t *testing.T) {
	net := newNet(t)
	isPrepare := func(m wire.Message) bool { _, ok := m.(*wire.PrepareReq); return ok }
	healthy := newNode(t, net, 0, 0, 1, 2, isPrepare)
	degraded := newNode(t, net, 0, 1, 1, 2, nil)
	client := transport.ClientID(0, 1)
	replies := endpoint(net, client)
	degraded.TxLog().InjectFailure(errors.New("disk gone"))

	prep := &wire.PrepareReq{ReqID: 1, TxID: 42, Writes: []wire.KV{{Key: keyOn(1, 2), Value: []byte("v")}}}
	if err := net.Send(client, degraded.ID(), prep); err != nil {
		t.Fatal(err)
	}
	if vote := await[*wire.PrepareResp](t, replies); vote.Err == "" || vote.PT != 0 {
		t.Fatalf("degraded cohort voted %+v, want an Err vote", vote)
	}
	degraded.mu.Lock()
	pending := len(degraded.prepared)
	degraded.mu.Unlock()
	if pending != 0 {
		t.Fatalf("the refused prepare is pending (%d), holding the apply bound", pending)
	}

	commit := &wire.CommitReq{ReqID: 2, TxID: degraded.NewTxID(), Writes: []wire.KV{{Key: keyOn(0, 2), Value: []byte("v")}}}
	if err := net.Send(client, degraded.ID(), commit); err != nil {
		t.Fatal(err)
	}
	if resp := await[*wire.CommitResp](t, replies); resp.Code != wire.CommitErrReadOnly {
		t.Fatalf("degraded coordinator answered %+v, want CommitErrReadOnly", resp)
	}
	select {
	case m := <-healthy.held:
		t.Fatalf("the degraded coordinator started a 2PC: %T reached a cohort", m)
	default:
	}
}

// TestEventsNameTheServer: every event a server's parts log names the
// server. The memory backend's file-less txlog says which server degraded,
// not an empty directory, and a failure the engine or the txlog surfaces
// only at Close is logged when the runtime stops.
func TestEventsNameTheServer(t *testing.T) {
	degraded, cancel := obs.Subscribe("txlog.degraded")
	defer cancel()
	storeClose, cancel2 := obs.Subscribe("store.close_failed")
	defer cancel2()
	txlogClose, cancel3 := obs.Subscribe("txlog.close_failed")
	defer cancel3()
	expect := func(ch <-chan obs.Event, want string) {
		t.Helper()
		select {
		case e := <-ch:
			if e.String() != want {
				t.Fatalf("event %q, want %q", e, want)
			}
		default:
			t.Fatalf("no event %q", want)
		}
	}

	net := newNet(t)
	n := newNode(t, net, 0, 1, 1, 2, nil)
	n.TxLog().InjectFailure(errors.New("disk gone"))
	expect(degraded, "test dc0/p1: txlog.degraded err=disk gone")

	cfg := Config{NumDCs: 1, NumPartitions: 2, Network: net, StoreBackend: backend.WAL, DataDir: t.TempDir()}
	cfg.FillDefaults()
	proto := &fakeProto{}
	r, err := New("test", cfg, proto)
	if err != nil {
		t.Fatal(err)
	}
	proto.rt = r
	r.Engine().(interface{ InjectFailure(error) }).InjectFailure(errors.New("engine gone"))
	r.TxLog().InjectFailure(errors.New("log gone"))
	r.Stop()
	expect(storeClose, "test dc0/p0: store.close_failed err=engine gone")
	expect(txlogClose, "test dc0/p0: txlog.close_failed err=log gone")
}
