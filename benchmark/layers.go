package main

// Per-layer metrics of the traced pass: span sums from the two wrapped
// seams, deltas of the program's public counters over the window, and what
// the operating system says about the process.

import (
	"io/fs"
	"path/filepath"

	"wren/internal/store/sst"
	"wren/internal/wire"
)

// layerMetrics fills m from a traced run: ref..a is the untraced half of the
// window, a..b the half that recorded.
func (r *run) layerMetrics(m metricSet, sessions []*session, ref, a, b counters, committed, failed int64, lstLag, rstLag float64) {
	tr, s := r.tr, r.cfg.s
	seconds := float64(b.at-a.at) / 1e9

	// carried sums what the samples that ended in the recorded half carried.
	carried := func(xs []sample) (n int64) {
		for _, x := range xs {
			if x.end >= a.at && x.end < b.at {
				n += x.n
			}
		}
		return n
	}
	var keysRead, userBytes int64
	var read, commit, scan, late []sample
	for _, se := range sessions {
		keysRead += carried(se.read) + carried(se.scan)
		userBytes += carried(se.commit)
		read, commit = append(read, se.read...), append(commit, se.commit...)
		scan, late = append(scan, se.scan...), append(late, se.late...)
	}
	perTx := func(v float64) float64 { return v / float64(max(committed, 1)) }
	ratio := func(v, by float64) float64 {
		if by == 0 {
			return 0
		}
		return v / by
	}

	// Client calls, as time per transaction, so that they add up to the
	// mean transaction latency with unaccounted as the remainder.
	nTx := tr.count[nameTx].Load()
	perTracedTx := func(names ...int) float64 {
		var ns int64
		for _, n := range names {
			ns += tr.sumNS[n].Load()
		}
		return ratio(float64(ns)/1e3, float64(nTx))
	}
	calls := perTracedTx(nameBegin, nameRead, nameCommit, nameScan)
	m.set("client.begin_us", perTracedTx(nameBegin), nTx)
	m.set("client.read_us", perTracedTx(nameRead), tr.count[nameRead].Load())
	m.set("client.commit_us", perTracedTx(nameCommit), nTx)
	m.set("client.scan_us", perTracedTx(nameScan), tr.count[nameScan].Load())
	m.set("client.unaccounted_us", perTracedTx(nameTx)-calls, nTx)
	// Client time outside the pooled round trip. Scans are left out: their
	// round trips to the partitions run side by side.
	m.set("client.self_us_per_tx", perTracedTx(nameBegin, nameRead, nameCommit)-
		perTracedTx(namePoolCall+int(wire.KindStartTxReq), namePoolCall+int(wire.KindTxReadReq), namePoolCall+int(wire.KindCommitReq)), nTx)
	// The tail of the transactions and the single calls as a session sees
	// them (a scheduled commit from the instant it was due), from the untraced
	// half.
	for _, q := range []struct {
		name string
		of   []sample
		q    float64
	}{{"client.tx_p99_ms", closedLoopTx(sessions), 0.99}, {"client.read_p50_ms", read, 0.5}, {"client.read_p99_ms", read, 0.99}, {"client.commit_p50_ms", commit, 0.5},
		{"client.commit_p99_ms", commit, 0.99}, {"client.scan_p50_ms", scan, 0.5}, {"replica.visibility_p99_ms", r.visibility(sessions), 0.99}} {
		ms := durationsMS(q.of, ref.at, a.at)
		m.set(q.name, quantile(ms, q.q), int64(len(ms)))
	}
	m.set("client.failed_share", ratio(float64(failed), float64(committed+failed)), committed+failed)

	for _, k := range pooledKinds {
		m.set("pool.call_us."+k.String(), tr.meanUS(namePoolCall+int(k)), tr.count[namePoolCall+int(k)].Load())
	}
	m.set("pool.calls_per_tx", perTx(float64(b.poolCalls-a.poolCalls)), committed)
	m.set("pool.timeouts", float64(b.poolTimeouts-a.poolTimeouts), 0)
	m.set("pool.orphans", float64(b.poolOrphans-a.poolOrphans), 0)

	for _, c := range tracedClasses {
		m.set("net.msgs_per_tx."+c.String(), perTx(float64(b.msgs[c]-a.msgs[c])), committed)
		m.set("net.bytes_per_tx."+c.String(), perTx(float64(b.bytes[c]-a.bytes[c])), committed)
	}
	for _, k := range tracedKinds {
		m.set("net.transit_us."+k.String(), tr.meanUS(nameTransit+int(k)), tr.count[nameTransit+int(k)].Load())
		m.set("server.handle_us."+k.String(), tr.meanUS(nameHandle+int(k)), tr.count[nameHandle+int(k)].Load())
	}
	m.set("server.handle_busy_share", float64(b.busyNS-a.busyNS)/1e9/seconds/float64(s.dcs*s.partitions), 0)

	// Connections are dialled during set-up, so these are totals since the
	// deployment started, not window deltas.
	m.set("tcp.dials", float64(b.dials), 0)
	m.set("tcp.redials", float64(b.redials), 0)
	m.set("tcp.evictions", float64(b.evictions), 0)
	m.set("tcp.overloaded", float64(b.overloaded), 0)

	m.set("core.slices_per_tx", perTx(float64(b.slices-a.slices)), committed)
	m.set("core.tx_started", float64(b.started-a.started), 0)
	m.set("core.tx_committed", float64(b.committed-a.committed), 0)
	m.set("core.repl_tx_applied_per_s", float64(b.replApplied-a.replApplied)/seconds, 0)
	m.set("core.gc_removed", float64(b.gc-a.gc), 0)
	m.set("replica.shed", float64(b.shed-a.shed), 0)
	m.set("replica.lst_lag_ms", lstLag, 0)
	m.set("replica.rst_lag_ms", rstLag, 0)

	if s.backend == "sst" {
		m.set("sst.block_reads_per_key", ratio(float64(b.blockReads-a.blockReads), float64(keysRead)), keysRead)
		m.set("sst.bloom_skips_per_key", ratio(float64(b.bloomSkips-a.bloomSkips), float64(keysRead)), keysRead)
		m.set("sst.flushes", float64(b.flushes-a.flushes), 0)
		m.set("sst.compactions", float64(b.compactions-a.compactions), 0)
		m.set("sst.write_amp", ratio(float64(b.writeBytes-a.writeBytes), float64(userBytes)), 0)
		var runs, levels int
		var index int64
		for _, srv := range r.d.servers[0] {
			if e, ok := srv.Store().(*sst.Engine); ok {
				runs += e.Runs()
				levels = max(levels, e.Levels())
				index += e.ResidentIndexBytes()
			}
		}
		m.set("sst.runs", float64(runs), 0)
		m.set("sst.levels", float64(levels), 0)
		m.set("sst.resident_index_bytes", float64(index), 0)
		live := float64(len(r.d.ks.keys) * (len(r.d.ks.keys[0]) + s.valueBytes))
		m.set("store.disk_bytes_per_user_byte", float64(dirSize(r.d.dir))/live, 0)
	}

	m.set("process.allocs_per_tx", perTx(float64(b.mallocs-a.mallocs)), committed)
	m.set("process.alloc_bytes_per_tx", perTx(float64(b.allocBytes-a.allocBytes)), committed)
	m.set("process.write_bytes_per_tx", perTx(float64(b.writeBytes-a.writeBytes)), committed)
	m.set("process.gc_pause_ms", float64(b.gcPauseNS-a.gcPauseNS)/1e6, 0)
	m.set("process.peak_rss_mb", float64(procField("status", "VmHWM"))/1024, 0)
	lateMS := durationsMS(late, a.at, b.at)
	m.set("gen.late_ms_p99", quantile(lateMS, 0.99), int64(len(lateMS)))
	refTPS := float64(a.started-ref.started) / (float64(a.at-ref.at) / 1e9)
	m.set("trace.overhead_pct", 100*(1-ratio(float64(b.started-a.started)/seconds, refTPS)), 0)
}

func dirSize(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		// Files vanish under a running compaction; what is gone is not on disk.
		if err == nil && !e.IsDir() {
			if fi, err := e.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}
