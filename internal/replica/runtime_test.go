package replica

import (
	"errors"
	"fmt"
	"sync/atomic"
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
// the version clock, a version carries only its commit time, there is no
// stabilization exchange, and a snapshot is the one time LT, set to stable
// at begin. Like core and cure, it routes PrepareReq to the runtime.
type fakeProto struct {
	rt     *Runtime
	stable hlc.Timestamp
}

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

func (p *fakeProto) ApplyBound() hlc.Timestamp                             { return p.rt.Clock.Update(0) }
func (p *fakeProto) ObserveCommitTS(ct hlc.Timestamp)                      { p.rt.Clock.Update(ct) }
func (*fakeProto) AfterInstall()                                           {}
func (*fakeProto) StampStable() wire.Stab                                  { return wire.Stab{} }
func (*fakeProto) ObserveStable(int, wire.Stab)                            {}
func (*fakeProto) GossipTick()                                             {}
func (p *fakeProto) BeginSnapshot(*wire.StartTxReq) Snapshot               { return Snapshot{LT: p.stable} }
func (p *fakeProto) ExpiredSnapshot() Snapshot                             { return Snapshot{LT: p.stable} }
func (*fakeProto) CommitFloor(s Snapshot, hwt hlc.Timestamp) hlc.Timestamp { return max(s.LT, hwt) }
func (*fakeProto) SnapshotFloor(s Snapshot) hlc.Timestamp                  { return s.LT }
func (p *fakeProto) StableFloor() hlc.Timestamp                            { return p.stable }
func (*fakeProto) ReadOwnSlice(_ []string, _ Snapshot, dst []wire.Item) ([]wire.Item, bool) {
	return dst, false
}
func (*fakeProto) OnStop(bool) {}
func (p *fakeProto) HandleMessage(from transport.NodeID, m wire.Message) {
	if msg, ok := m.(*wire.PrepareReq); ok {
		p.rt.Prepare(from, msg, msg.HT)
	}
}

// newNet returns a zero-latency simulated network closed after the test,
// once every runtime on it has stopped.
func newNet(t *testing.T) *transport.Memory {
	net := transport.NewMemory(nil, 0)
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
	return newNodeWith(t, net, Config{DC: dc, Partition: partition, NumDCs: numDCs, NumPartitions: numPartitions, Network: net}, hold)
}

// newNodeWith is newNode for a runtime configured as cfg, registered on net
// (cfg.Network may wrap it).
func newNodeWith(t *testing.T, net *transport.Memory, cfg Config, hold func(wire.Message) bool) *node {
	t.Helper()
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
	if ack := await[*wire.ReplicateAck](t, acks); ack.UpTo != 10 {
		t.Fatalf("first ReplicateAck %+v, want UpTo 10: the refused batch was acknowledged", ack)
	}
}

// asCoordinator returns functions that drive n as a cohort the way a
// coordinator of one-key transactions does: prepare returns n's proposal,
// commit decides.
func asCoordinator(t *testing.T, net *transport.Memory, n *node) (prepare func(txID uint64, key string) hlc.Timestamp, commit func(txID uint64, ct hlc.Timestamp)) {
	coord := transport.ClientID(n.cfg.DC, 1)
	votes := endpoint(net, coord)
	prepare = func(txID uint64, key string) hlc.Timestamp {
		n.Prepare(coord, &wire.PrepareReq{ReqID: txID, TxID: txID, Writes: []wire.KV{{Key: key, Value: []byte("v")}}}, 0)
		return await[*wire.PrepareResp](t, votes).PT
	}
	commit = func(txID uint64, ct hlc.Timestamp) {
		n.HandleMessage(coord, &wire.CommitTx{TxID: txID, CT: ct})
	}
	return prepare, commit
}

// waitFor polls cond until it holds, failing after 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no %s within 10s", what)
		}
	}
}

// stall drives n's stall detector past its threshold and runs the apply
// goroutine's pass and ship once, so every stream with transactions above
// its unmoved cursor rewinds.
func stall(n *node) {
	for i := 0; i <= rewindStallTicks; i++ {
		n.rewindStalled()
	}
	n.ApplyTick()
	n.ship(false)
}

// TestCursorAdvancesOverContiguousPrefix: the replication cursor only ever
// covers a prefix the peer holds. With the second of four batches lost, the
// peer acknowledges the first alone — the two chained past the gap are
// refused, and acknowledge nothing — and the cursor moves over all four
// only after a rewind refilled the gap.
func TestCursorAdvancesOverContiguousPrefix(t *testing.T) {
	net := newNet(t)
	var batches atomic.Int32
	lost := func(m wire.Message) bool { _, ok := m.(*wire.Replicate); return ok && batches.Add(1) == 2 }
	sender := newNode(t, net, 0, 0, 2, 1, nil)
	receiver := newNode(t, net, 1, 0, 2, 1, lost)
	prepare, commit := asCoordinator(t, net, sender)
	sender.ship(false) // New's rewind, over an empty log

	var cts []hlc.Timestamp
	for i := 0; i < 4; i++ {
		id := sender.NewTxID()
		ct := prepare(id, fmt.Sprint("k", i))
		commit(id, ct)
		cts = append(cts, ct)
	}
	sender.ApplyTick()
	sender.ship(false)
	for i := 0; i < 3; i++ {
		await[*wire.Replicate](t, receiver.handled)
	}
	receiver.release()
	if ack := await[*wire.ReplicateAck](t, sender.handled); ack.UpTo != cts[0] {
		t.Fatalf("ReplicateAck up to %v past a lost batch, want %v", ack.UpTo, cts[0])
	}
	if cur := sender.TxLog().Cursor(1); cur != cts[0] {
		t.Fatalf("cursor %v, want %v", cur, cts[0])
	}

	stall(sender)
	await[*wire.Replicate](t, receiver.handled)
	receiver.release()
	if ack := await[*wire.ReplicateAck](t, sender.handled); ack.UpTo != cts[3] {
		t.Fatalf("ReplicateAck up to %v after the rewind, want %v", ack.UpTo, cts[3])
	}
	if cur := sender.TxLog().Cursor(1); cur != cts[3] {
		t.Fatalf("cursor %v after the rewind, want %v", cur, cts[3])
	}
}

// TestStreamNeverShipsAboveLocalClock: a rewind ships only what the local
// version clock covers. b commits above a's pending proposal; a rewind in
// between must not carry b, or the peer takes a's batch, below its new
// watermark, for a duplicate and never installs a.
func TestStreamNeverShipsAboveLocalClock(t *testing.T) {
	net := newNet(t)
	sender := newNode(t, net, 0, 0, 2, 1, nil)
	receiver := newNode(t, net, 1, 0, 2, 1, nil)
	prepare, commit := asCoordinator(t, net, sender)
	// received checks the next n batches against the sender's clock, which
	// no pass moves while they are in flight.
	received := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			m := await[*wire.Replicate](t, receiver.handled)
			if last := m.Txs[len(m.Txs)-1].CT; last > sender.VV.Load(0) {
				t.Fatalf("a Replicate carried %v, above the sender's VV[0] %v", last, sender.VV.Load(0))
			}
		}
	}

	// One transaction shipped and never acknowledged: the cursor stalls.
	w := sender.NewTxID()
	commit(w, prepare(w, "w"))
	sender.ApplyTick()
	sender.ship(false)
	received(1)

	b, a := sender.NewTxID(), sender.NewTxID()
	prepare(b, "b")
	ptA := prepare(a, "a")
	commit(b, ptA+1000)
	stall(sender)
	received(1)

	commit(a, ptA)
	sender.ApplyTick()
	sender.ship(false)
	received(2)
	if !receiver.txApplied("a", a) {
		t.Fatal("receiver never installed tx a: dropped as a duplicate below its watermark")
	}
	if !receiver.txApplied("b", b) {
		t.Fatal("receiver never installed tx b")
	}
}

// TestLostRewindBatchStopsStream: every batch of a rewind but its first is
// chained, so when one is lost the peer applies nothing past it and the
// sender's cursor stops at the end of the batch before; the next rewind
// refills the gap.
func TestLostRewindBatchStopsStream(t *testing.T) {
	net := newNet(t)
	var rewound atomic.Int32
	// Every ordinary batch is lost, and the second batch of the first rewind.
	lost := func(m wire.Message) bool {
		b, ok := m.(*wire.Replicate)
		return ok && (!b.Resync || rewound.Add(1) == 2)
	}
	sender := newNode(t, net, 0, 0, 2, 1, nil)
	receiver := newNode(t, net, 1, 0, 2, 1, lost)
	prepare, commit := asCoordinator(t, net, sender)
	sender.ship(false) // New's rewind, over an empty log

	const n = 300
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = sender.NewTxID()
		commit(ids[i], prepare(ids[i], fmt.Sprint("k", i)))
	}
	sender.ApplyTick()
	sender.ship(false)

	stall(sender)
	first := await[*wire.Replicate](t, receiver.handled)
	end := first.Txs[len(first.Txs)-1].CT
	await[*wire.Replicate](t, receiver.handled) // the third, past the lost one
	receiver.release()
	waitFor(t, "ReplicateAck", func() bool { return sender.TxLog().Cursor(1) != 0 })
	if cur := sender.TxLog().Cursor(1); cur > end {
		t.Fatalf("cursor %v passed the end %v of the last rewind batch before the lost one", cur, end)
	}
	if vv := receiver.VV.Load(0); vv > end {
		t.Fatalf("receiver VV[0] %v passed the end %v of the last batch before the lost one", vv, end)
	}

	stall(sender)
	waitFor(t, "all 300 transactions at the receiver", func() bool {
		for i, id := range ids {
			if !receiver.txApplied(fmt.Sprint("k", i), id) {
				return false
			}
		}
		return true
	})
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

	cfg := Config{NumDCs: 1, NumPartitions: 2, Network: net, StoreBackend: backend.SST, DataDir: t.TempDir()}
	cfg.FillDefaults()
	proto := &fakeProto{}
	r, err := New("test", cfg, proto)
	if err != nil {
		t.Fatal(err)
	}
	proto.rt = r
	r.Store().(interface{ InjectFailure(error) }).InjectFailure(errors.New("engine gone"))
	r.TxLog().InjectFailure(errors.New("log gone"))
	r.Stop()
	expect(storeClose, "test dc0/p0: store.close_failed err=engine gone")
	expect(txlogClose, "test dc0/p0: txlog.close_failed err=log gone")
}
