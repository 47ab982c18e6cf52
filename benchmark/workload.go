package main

// One run: set the deployment up, drive it with the workload's sessions for
// a warm-up and a measured window, check what came back, and turn the
// samples and counter deltas into metrics.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"wren/internal/core"
	"wren/internal/hlc"
	"wren/internal/store/sst"
)

type runConfig struct {
	s      *spec
	seed   int64
	warmup time.Duration
	window time.Duration
	traced bool
	quick  bool // small datasets and short probes
	setups int  // how many times the deployment is set up; setup_s is their median
	links  int
	nproc  int
	tmp    string // parent of the data directories
	outDir string // where the traced pass writes its spans
	probes *probeCache
}

type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Seconds   float64                `json:"seconds"`
	Sessions  int                    `json:"sessions"`
	Links     int                    `json:"links"`
	VersionGC string                 `json:"version_gc"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Problems  []string               `json:"problems,omitempty"`
}

// run is the shared state of one run's sessions.
type run struct {
	cfg  runConfig
	d    *deployment
	tr   *tracer
	stop atomic.Bool

	mu       sync.Mutex
	problems []string
	nProblem int
}

// problem records a failed output check; the run ends incorrect.
func (r *run) problem(format string, args ...any) {
	r.mu.Lock()
	if r.nProblem++; len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// seenAt is how far a session could see at an instant: the local snapshot
// time a transaction began with, or the marker sequence a read returned.
type seenAt struct {
	t     int64
	level uint64
}

// ackAt is an acknowledged update: when the ack arrived, its commit time and
// (geo_visibility) the marker sequence it wrote.
type ackAt struct {
	t   int64
	ct  hlc.Timestamp
	seq uint64
}

// session is one client session with its generator, its samples and the
// state its output checks need.
type session struct {
	r   *run
	id  int
	c   *core.Client
	tc  *traceConn
	gen *generator
	seq uint64 // transactions begun; tags every value the session writes

	// Per key id: the sequence and commit time of this session's last
	// acknowledged write, and the last tag any read of it returned.
	lastSeq []uint32
	lastCT  []hlc.Timestamp
	seen    []uint64

	tx, read, commit, scan, late []sample
	fails                        []int64
	begins                       []seenAt // snapshot time of every Begin
	markers                      []seenAt // geo_visibility readers: marker sequence of every read
	acks                         []ackAt
	keys                         []string
	scheduled                    bool // open loop: timed from due times
}

func (r *run) newSession(dc, coordinator int, mix []mixEntry, index int) (*session, error) {
	c, tc, err := r.d.session(dc, coordinator)
	if err != nil {
		return nil, err
	}
	n := len(r.d.ks.keys)
	return &session{r: r, id: index, c: c, tc: tc, gen: newGenerator(r.cfg.s, mix, r.cfg.seed, index),
		lastSeq: make([]uint32, n), lastCT: make([]hlc.Timestamp, n), seen: make([]uint64, n)}, nil
}

// closedLoop issues the session's next transaction as soon as the previous
// one returned: a Wren session is a caller that waits for each reply.
func (se *session) closedLoop(markers bool) {
	for !se.r.stop.Load() {
		se.transact(se.gen.next(), 0, markers)
	}
}

// openLoop issues one transaction per period on a fixed schedule and times
// each from the instant it was due, so a stall is charged to every
// transaction it delayed.
func (se *session) openLoop(period time.Duration) {
	se.scheduled = true
	first := nowNS()
	for k := int64(0); !se.r.stop.Load(); k++ {
		due := first + k*int64(period)
		if wait := due - nowNS(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		started := nowNS()
		se.late = append(se.late, sample{end: started, dur: started - due})
		se.transact(se.gen.next(), due, true)
	}
}

// transact runs one generated transaction: Begin, at most one Read or Scan,
// buffered writes, Commit. due is the scheduled start of an open-loop
// transaction (0 = closed loop); markers adds the two marker keys to the
// read set, or to the write set of an update.
func (se *session) transact(o op, due int64, markers bool) {
	s, ks, tr := se.r.cfg.s, se.r.d.ks, se.r.tr
	se.seq++
	var pos int32
	tracing := tr != nil && tr.on.Load()
	if tracing {
		pos = tr.reserve(4) // tx, begin, read or scan, commit
	}
	// at is the buffer position of the i-th of the four spans, 0 (nowhere)
	// when the buffer was full.
	at := func(i int32) int32 {
		if pos == 0 {
			return 0
		}
		return pos + i
	}
	child := func(i int32) {
		if tracing {
			se.tc.parent = at(i)
		}
	}

	// Each client call is timed on its own; what lies between them inside
	// the transaction (building keys and values, checking results) is the
	// harness's, and the traced pass reports it as client.unaccounted_us.
	b0 := nowNS()
	child(1)
	tx, err := se.c.Begin()
	b1 := nowNS()
	if err != nil {
		se.fail(b1, "begin", err)
		return
	}
	lt, _ := tx.Snapshot()
	se.begins = append(se.begins, seenAt{t: b1, level: uint64(lt)})

	var r0, r1 int64
	switch {
	case o.scanStart >= 0:
		child(2)
		r0 = nowNS()
		kvs, err := tx.Scan(ks.keys[o.scanStart], "", o.scanLimit)
		r1 = nowNS()
		if err != nil {
			se.fail(r1, "scan", err)
			return
		}
		se.scan = append(se.scan, sample{end: r1, dur: r1 - r0, n: int64(len(kvs))})
		se.checkScan(kvs, o)
	case len(o.reads) > 0 || (markers && len(o.writes) == 0):
		se.keys = se.keys[:0]
		for _, id := range o.reads {
			se.keys = append(se.keys, ks.keys[id])
		}
		if markers {
			se.keys = append(se.keys, ks.markers[:]...)
		}
		child(2)
		r0 = nowNS()
		got, err := tx.Read(se.keys...)
		r1 = nowNS()
		if err != nil {
			se.fail(r1, "read", err)
			return
		}
		se.read = append(se.read, sample{end: r1, dur: r1 - r0, n: int64(len(se.keys))})
		se.checkRead(got, o, markers, r1)
	}

	for _, id := range o.writes {
		_ = tx.Write(ks.keys[id], value(make([]byte, s.valueBytes), se.id, se.seq))
	}
	if markers && len(o.writes) > 0 {
		for _, k := range ks.markers {
			_ = tx.Write(k, value(make([]byte, s.valueBytes), se.id, se.seq))
		}
	}
	child(3)
	c0 := nowNS()
	ct, err := tx.Commit()
	c1 := nowNS()
	if err != nil {
		se.fail(c1, "commit", err)
		return
	}
	// A scheduled transaction is timed from the instant it was due.
	from, commitFrom := b0, c0
	if due > 0 {
		from, commitFrom = due, due
	}
	if len(o.writes) > 0 {
		se.commit = append(se.commit, sample{end: c1, dur: c1 - commitFrom, n: int64(len(o.writes) * (len(ks.keys[0]) + s.valueBytes))})
		se.acks = append(se.acks, ackAt{t: c1, ct: ct, seq: se.seq})
		for _, id := range o.writes {
			se.lastSeq[id], se.lastCT[id] = uint32(se.seq), ct
		}
	}
	se.tx = append(se.tx, sample{end: c1, dur: c1 - from})

	if tracing {
		id := tx.ID()
		tr.record(pos, nameTx, b0, c1, 0, id)
		tr.record(at(1), nameBegin, b0, b1, pos, id)
		if o.scanStart >= 0 {
			tr.record(at(2), nameScan, r0, r1, pos, id)
		} else if r1 > 0 {
			tr.record(at(2), nameRead, r0, r1, pos, id)
		}
		tr.record(at(3), nameCommit, c0, c1, pos, id)
	}
}

func (se *session) fail(t int64, what string, err error) {
	se.fails = append(se.fails, t)
	se.r.problem("session %d: %s failed: %v", se.id, what, err)
}

// checkRead verifies one Tx.Read: every preloaded key reads back a value of
// the right size; a key this session wrote never reads as the preloaded
// value or as one of its own older writes again (read-your-writes); one
// writer's values for a key never go backwards (monotonic reads); and the
// two markers carry the same sequence (atomic visibility).
func (se *session) checkRead(got map[string][]byte, o op, markers bool, t int64) {
	s, ks := se.r.cfg.s, se.r.d.ks
	for _, id := range o.reads {
		key := ks.keys[id]
		writer, seq, ok := parseValue(got[key], s.valueBytes)
		if !ok {
			se.r.problem("session %d: key %s read %d bytes, want a %d-byte value", se.id, key, len(got[key]), s.valueBytes)
			continue
		}
		if mine := uint64(se.lastSeq[id]); mine > 0 && (writer == preloadSession || (writer == se.id && seq < mine)) {
			se.r.problem("session %d: key %s read (%d,%d) after its own write %d", se.id, key, writer, seq, mine)
		}
		tag := uint64(writer)<<48 | seq
		if prev := se.seen[id]; prev>>48 == uint64(writer) && tag < prev {
			se.r.problem("session %d: key %s went back from sequence %d to %d of writer %d", se.id, key, prev&(1<<48-1), seq, writer)
		}
		se.seen[id] = tag
	}
	if !markers {
		return
	}
	_, a, okA := parseValue(got[ks.markers[0]], s.valueBytes)
	_, b, okB := parseValue(got[ks.markers[1]], s.valueBytes)
	switch {
	case !okA || !okB:
		se.r.problem("session %d: a marker is missing or malformed", se.id)
	case a != b:
		se.r.problem("session %d: markers read %d and %d in one transaction", se.id, a, b)
	case len(se.markers) > 0 && a < se.markers[len(se.markers)-1].level:
		se.r.problem("session %d: marker went back from %d to %d", se.id, se.markers[len(se.markers)-1].level, a)
	default:
		se.markers = append(se.markers, seenAt{t: t, level: a})
	}
}

// checkScan verifies one Tx.Scan: ascending keys from the start key on, at
// most the limit, every value well-formed.
func (se *session) checkScan(kvs []core.ScanKV, o op) {
	s, ks := se.r.cfg.s, se.r.d.ks
	prev := ks.keys[o.scanStart]
	if len(kvs) == 0 || len(kvs) > o.scanLimit || kvs[0].Key != prev {
		se.r.problem("session %d: scan from %s returned %d keys (limit %d)", se.id, prev, len(kvs), o.scanLimit)
		return
	}
	for i, kv := range kvs {
		if _, _, ok := parseValue(kv.Value, s.valueBytes); !ok || (i > 0 && kv.Key <= prev) {
			se.r.problem("session %d: scan from %s returned a bad entry at %s", se.id, ks.keys[o.scanStart], kv.Key)
			return
		}
		prev = kv.Key
	}
}

// counters is a snapshot of every public counter the report uses.
type counters struct {
	at                                          int64
	cpu                                         time.Duration
	started, committed, slices, replApplied, gc uint64
	shed                                        uint64
	poolCalls, poolTimeouts, poolOrphans        uint64
	dials, redials, evictions, overloaded       uint64
	blockReads, bloomSkips                      int64
	flushes, compactions                        int
	mallocs, allocBytes, gcPauseNS              uint64
	writeBytes                                  int64
	msgs, bytes                                 [numClasses]int64
	busyNS                                      int64
}

func (r *run) snapshot() counters {
	c := counters{at: nowNS(), cpu: cpuTime()}
	for dc := range r.d.servers {
		for p, srv := range r.d.servers[dc] {
			m := srv.Metrics()
			c.started += m.TxStarted.Load()
			c.committed += m.TxCommitted.Load()
			c.slices += m.SlicesServed.Load()
			c.replApplied += m.ReplTxApplied.Load()
			c.gc += m.GCRemoved.Load()
			c.shed += srv.ShedRequests()
			st := r.d.srvNets[dc][p].Stats()
			c.dials, c.redials, c.evictions, c.overloaded = c.dials+st.Dials, c.redials+st.Redials, c.evictions+st.Evictions, c.overloaded+st.Overloaded
			if e, ok := srv.Store().(*sst.Engine); ok {
				em := e.Metrics()
				c.blockReads += em.BlockReads()
				c.bloomSkips += em.BloomSkips()
				c.flushes += em.Flushes()
				c.compactions += em.Compactions()
			}
		}
	}
	for _, cp := range r.d.pools {
		ps := cp.Stats()
		c.poolCalls, c.poolTimeouts, c.poolOrphans = c.poolCalls+ps.Calls, c.poolTimeouts+ps.Timeouts, c.poolOrphans+ps.Orphans
		for _, tn := range cp.nets {
			st := tn.Stats()
			c.dials, c.redials, c.evictions, c.overloaded = c.dials+st.Dials, c.redials+st.Redials, c.evictions+st.Evictions, c.overloaded+st.Overloaded
		}
	}
	if r.tr != nil {
		// Stop-the-world, so only the traced pass pays for it.
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		c.mallocs, c.allocBytes, c.gcPauseNS = ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs
		c.writeBytes = procField("io", "write_bytes")
		for i := range c.msgs {
			c.msgs[i], c.bytes[i] = r.tr.msgs[i].Load(), r.tr.bytes[i].Load()
		}
		c.busyNS = r.tr.busyNS.Load()
	}
	return c
}

// setUp builds the deployment and loads it, cfg.setups times over, keeping
// the last one. It returns the median set-up time.
func (r *run) setUp() (float64, error) {
	ks := newKeyspace(r.cfg.s)
	var took []float64
	for i := 0; i < r.cfg.setups; i++ {
		if r.d != nil {
			r.d.close()
			r.d = nil
		}
		start := time.Now()
		d, err := newDeployment(r.cfg.s, ks, r.cfg.links, r.cfg.tmp, r.tr)
		if err != nil {
			return 0, err
		}
		r.d = d
		if err := d.preload(); err != nil {
			return 0, err
		}
		took = append(took, time.Since(start).Seconds())
	}
	return median(took), nil
}

// execute performs the whole run.
func execute(cfg runConfig) (*runResult, error) {
	r := &run{cfg: cfg}
	if cfg.traced {
		r.tr = newTracer()
	}
	defer func() {
		if r.d != nil {
			r.d.close()
		}
	}()
	setupS, err := r.setUp()
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", cfg.s.name, err)
	}

	// Sessions. Closed-loop session i is pinned to coordinator i mod N;
	// geo_visibility runs one scheduled writer in DC 0 and its closed-loop
	// readers in DC 1.
	type plan struct {
		dc, coordinator int
		mix             []mixEntry
		loop            func(*session)
	}
	var plans []plan
	s := cfg.s
	if s.geo {
		plans = append(plans, plan{0, 0, s.mix[:1], func(se *session) { se.openLoop(time.Second / writerRate) }})
		for i := 1; i <= s.sessionsPerProc*cfg.nproc; i++ {
			plans = append(plans, plan{1, i % s.partitions, s.mix[1:], func(se *session) { se.closedLoop(true) }})
		}
	} else {
		for i := 0; i < s.sessionsPerProc*cfg.nproc; i++ {
			plans = append(plans, plan{0, i % s.partitions, s.mix, func(se *session) { se.closedLoop(false) }})
		}
	}
	var sessions []*session
	var wg sync.WaitGroup
	for i, p := range plans {
		se, err := r.newSession(p.dc, p.coordinator, p.mix, i)
		if err != nil {
			r.stop.Store(true)
			wg.Wait()
			return nil, err
		}
		sessions = append(sessions, se)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer se.c.Close()
			p.loop(se)
		}()
	}

	time.Sleep(cfg.warmup)
	// The traced pass spends the first half of its window with the wrappers
	// passing everything through. What a session sees of single calls, and the
	// rate trace.overhead_pct compares with, come from that half, free of the
	// cost of tracing; the second half records.
	var ref counters
	window := cfg.window // between the snapshots a and b
	if r.tr != nil {
		window /= 2
		ref = r.snapshot()
		time.Sleep(time.Duration(ref.at + int64(window) - nowNS()))
		r.tr.on.Store(true)
	}
	lag := r.startLagSampler()
	a := r.snapshot()
	time.Sleep(time.Duration(a.at + int64(window) - nowNS()))
	b := r.snapshot()
	lstLag, rstLag := lag()
	if r.tr != nil {
		r.tr.on.Store(false)
	}
	// Sessions run a little past the window so that the last updates of the
	// window are seen becoming visible.
	time.Sleep(50 * time.Millisecond)
	r.stop.Store(true)
	wg.Wait()

	committed, failed := inWindow(sessions, a.at, b.at)
	var m metricSet
	if r.tr == nil {
		m = r.endToEnd(sessions, a, b, setupS)
	} else {
		m = newMetricSet(perLayer)
		r.layerMetrics(m, sessions, ref, a, b, committed, failed, lstLag, rstLag)
	}
	lost, recovery, err := r.verifyAcked(sessions)
	if err != nil {
		return nil, fmt.Errorf("%s: verifying acknowledged writes: %w", cfg.s.name, err)
	}
	if r.tr != nil {
		m.set("replica.acked_lost", float64(lost), 0)
		m.set("replica.recovery_ms", float64(recovery.Microseconds())/1e3, 0)
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return nil, err
		}
		if err := r.tr.writeSpans(filepath.Join(cfg.outDir, "trace-"+cfg.s.name+".json")); err != nil {
			return nil, err
		}
		r.d.close()
		r.d = nil
		if err := cfg.probes.fill(m, cfg.tmp, cfg.quick); err != nil {
			return nil, err
		}
	}

	return &runResult{Workload: cfg.s.name, Seed: cfg.seed, Traced: cfg.traced, Seconds: cfg.window.Seconds(),
		Sessions: len(sessions), Links: cfg.links, VersionGC: cfg.s.versionGC(), Metrics: m, Problems: r.problems,
		Attempted: committed + failed, Failed: failed,
		Correct: r.nProblem == 0 && failed == 0 && lost == 0 && committed > 0}, nil
}

// inWindow counts the transactions that committed and that failed between
// two instants.
func inWindow(sessions []*session, lo, hi int64) (committed, failed int64) {
	for _, se := range sessions {
		for _, x := range se.tx {
			if x.end >= lo && x.end < hi {
				committed++
			}
		}
		for _, t := range se.fails {
			if t >= lo && t < hi {
				failed++
			}
		}
	}
	return committed, failed
}

// metricSet holds the values of one run by metric name. It starts with
// every declared metric at 0, so a metric that does not apply to a workload
// is still reported.
type metricSet map[string]metricValue

func newMetricSet(defs []metricDef) metricSet {
	m := make(metricSet, len(defs))
	for _, d := range defs {
		m[d.Name] = metricValue{Unit: d.Unit}
	}
	return m
}

func (m metricSet) set(name string, v float64, n int64) {
	cur, ok := m[name]
	if !ok {
		panic("benchmark: undeclared metric " + name)
	}
	m[name] = metricValue{Value: v, Unit: cur.Unit, N: n}
}

// closedLoopTx returns the transactions of the closed-loop sessions.
// geo_visibility's writer is load at a fixed rate, like replication: mixing
// its scheduled transactions into the readers' distribution would put the
// percentiles wherever the mix ratio says.
func closedLoopTx(sessions []*session) []sample {
	var tx []sample
	for _, se := range sessions {
		if !se.scheduled {
			tx = append(tx, se.tx...)
		}
	}
	return tx
}

// endToEnd computes the end-to-end metrics of an untraced run over the
// window between the snapshots a and b.
func (r *run) endToEnd(sessions []*session, a, b counters, setupS float64) metricSet {
	m := newMetricSet(endToEnd)
	m.set("setup_s", setupS, int64(r.cfg.setups))
	ms := durationsMS(closedLoopTx(sessions), a.at, b.at)
	n := int64(len(ms))
	m.set("tx_per_s", float64(n)/(float64(b.at-a.at)/1e9), n)
	m.set("tx_p50_ms", quantile(ms, 0.50), n)
	m.set("cpu_us_per_tx", float64((b.cpu-a.cpu).Microseconds())/float64(max(n, 1)), n)
	ms = durationsMS(r.visibility(sessions), a.at, b.at)
	m.set("visibility_p50_ms", quantile(ms, 0.50), int64(len(ms)))
	return m
}

// visibility returns, for every acknowledged update, how long after its ack
// it became visible, as samples ending at the ack.
//
// With one DC an update is visible once a transaction can begin with a local
// snapshot time at or past its commit time — that is the CANToR rule — and
// the sessions themselves begin thousands of transactions a second, so the
// earliest such Begin after the ack is found without issuing a single extra
// request. In geo_visibility the update comes from the other DC and the
// readers look for it: it is visible when a read first returns a marker
// sequence at or past the update's.
func (r *run) visibility(sessions []*session) []sample {
	geo := r.cfg.s.geo
	var seen []seenAt
	for _, se := range sessions {
		if geo {
			seen = append(seen, se.markers...)
		} else {
			seen = append(seen, se.begins...)
		}
	}
	slices.SortFunc(seen, func(a, b seenAt) int { return int(a.t - b.t) })
	for i := 1; i < len(seen); i++ { // running maximum: the furthest anyone has seen so far
		seen[i].level = max(seen[i].level, seen[i-1].level)
	}
	var out []sample
	for _, se := range sessions {
		for _, a := range se.acks {
			need := uint64(a.ct)
			if geo {
				need = a.seq
			}
			i, _ := slices.BinarySearchFunc(seen, need, func(s seenAt, need uint64) int {
				if s.level < need {
					return -1
				}
				return 1
			})
			if i < len(seen) {
				out = append(out, sample{end: a.t, dur: max(seen[i].t-a.t, 0)})
			}
		}
	}
	return out
}

// startLagSampler samples every server's stable times against the wall
// clock every 10 ms; the returned function stops it and gives the mean lag
// of the local and the remote stable time in milliseconds.
func (r *run) startLagSampler() func() (lst, rst float64) {
	if r.tr == nil {
		return func() (float64, float64) { return 0, 0 }
	}
	done, stopped := make(chan struct{}), make(chan struct{})
	var sumL, sumR time.Duration
	var n int
	go func() {
		defer close(stopped)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				for dc := range r.d.servers {
					for _, srv := range r.d.servers[dc] {
						l, rs := srv.StableTimes()
						sumL += time.Since(l.Time())
						if r.cfg.s.dcs > 1 {
							sumR += time.Since(rs.Time())
						}
						n++
					}
				}
			}
		}
	}()
	return func() (float64, float64) {
		close(done)
		<-stopped
		if n == 0 {
			return 0, 0
		}
		return float64(sumL.Microseconds()) / float64(n) / 1e3, float64(sumR.Microseconds()) / float64(n) / 1e3
	}
}

// verifyAcked reads back every key the sessions wrote and checks that it
// holds the acknowledged write with the highest commit time. For a workload
// with kill set, every server is first hard-stopped and reopened on its data
// directory. It returns how many acknowledged writes were lost.
func (r *run) verifyAcked(sessions []*session) (lost int, recovery time.Duration, err error) {
	if r.cfg.s.kill {
		if recovery, err = r.d.reopen(); err != nil {
			return 0, 0, err
		}
	}
	ks, s := r.d.ks, r.cfg.s
	type want struct {
		id  int32
		tag uint64
		ct  hlc.Timestamp
	}
	var wants []want
	for id := range ks.keys {
		var w want
		for _, se := range sessions {
			if ct := se.lastCT[id]; ct > w.ct {
				w = want{id: int32(id), tag: uint64(se.id)<<48 | uint64(se.lastSeq[id]), ct: ct}
			}
		}
		if w.ct > 0 {
			wants = append(wants, w)
		}
	}
	c, _, err := r.d.session(0, 0)
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	// The last acknowledged writes may still be on their way into the
	// stable snapshot; a write counts as lost only if it stays unreadable.
	deadline := time.Now().Add(5 * time.Second)
	for len(wants) > 0 {
		var missing []want
		for lo := 0; lo < len(wants); lo += 256 {
			chunk := wants[lo:min(lo+256, len(wants))]
			keys := make([]string, len(chunk))
			for i, w := range chunk {
				keys[i] = ks.keys[w.id]
			}
			tx, err := c.Begin()
			if err != nil {
				return 0, 0, err
			}
			got, err := tx.Read(keys...)
			if err != nil {
				return 0, 0, err
			}
			if _, err := tx.Commit(); err != nil {
				return 0, 0, err
			}
			for i, w := range chunk {
				writer, seq, ok := parseValue(got[keys[i]], s.valueBytes)
				if !ok || uint64(writer)<<48|seq != w.tag {
					missing = append(missing, w)
				}
			}
		}
		wants = missing
		if len(wants) == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, w := range wants {
		r.problem("acknowledged write to %s (session %d, sequence %d) is not readable", ks.keys[w.id], w.tag>>48, w.tag&(1<<48-1))
	}
	return len(wants), recovery, nil
}
