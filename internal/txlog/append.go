package txlog

import (
	"fmt"
	"time"

	"wren/internal/store/fsutil"
	"wren/internal/store/logrec"
	"wren/internal/wire"
)

// chunk is how far ahead of the append position the file is kept
// zero-filled: the region is extended back to a full chunk whenever an
// append would come within a quarter of one of its end, so one sync in
// (3/4 chunk ÷ bytes per sync) moves the file size and the rest do not.
const chunk = 256 << 10

// zeros is what extends the region (and clears a torn tail at recovery),
// one page per write: a larger write makes the page cache hold the region
// in large folios, and the kernel then accounts a whole folio as written
// (/proc/<pid>/io write_bytes) for every record that dirties one — six
// times the bytes that reach the device, at no gain in latency.
var zeros [4096]byte

// fsyncPeriod bounds, under FsyncInterval, how long an appended record
// waits for the sync that covers it.
const fsyncPeriod = 10 * time.Millisecond

// writeZeros overwrites [off, off+n) of f with zeros, leaving the handle's
// append position where it is.
func writeZeros(f fsutil.File, off, n int64) error {
	for n > 0 {
		z := zeros[:min(n, int64(len(zeros)))]
		if _, err := f.WriteAt(z, off); err != nil {
			return err
		}
		off += int64(len(z))
		n -= int64(len(z))
	}
	return nil
}

// appendLocked frames one record into the append buffer and appends it
// into the zero-filled region, extending the region first when the record
// would end within a quarter chunk of its end. Caller holds sh.Mu. After
// Close the append quietly drops: straggler messages delivered during
// shutdown are not durability failures. Without a file the transition the
// caller made is the whole record; it only counts toward compaction.
// Under FsyncInterval an append no pending timer will cover arms one.
func (l *Log) appendLocked(encode func(*wire.Encoder)) {
	if l.stopped {
		return
	}
	l.appends++
	if l.dir == "" {
		return
	}
	l.sh.Enc.Reset()
	logrec.AppendFrame(l.sh.Enc, encode)
	end := l.sh.Size + int64(l.sh.Enc.Len())
	if end > l.filled-chunk/4 && !l.sh.Failed {
		// A failed extension is a recorded failure like any other; the
		// append itself still lands (growing the file the old way), and
		// the rewrite that repairs the log starts a fresh region.
		if err := writeZeros(l.sh.F, l.filled, end+chunk-l.filled); err != nil {
			l.onErr(fmt.Errorf("extend: %w", err))
		} else {
			l.filled = end + chunk
		}
	}
	l.sh.Append(l.sh.Enc.Bytes(), l.onErr)
	if l.sh.Size != end || l.filled < end {
		// Past the region (its extension failed), or a failed append that
		// was rolled back by truncating the file to the last record: the
		// file ends where the records do.
		l.filled = l.sh.Size
	}
	if l.fsync == FsyncInterval && !l.armed {
		l.armed = true
		time.AfterFunc(fsyncPeriod, l.Sync)
	}
}

// SyncOnAppend reports whether the fsync policy requires a sync before a
// record-backed acknowledgement may leave the server (fsync=always).
func (l *Log) SyncOnAppend() bool { return l.fsync == FsyncAlways }

// lazyWaiter is a callback parked until the synced watermark reaches lsn.
type lazyWaiter struct {
	lsn int64
	fn  func()
}

// endLocked is the LSN of the last appended record. Caller holds sh.Mu.
func (l *Log) endLocked() int64 { return l.base + l.sh.Size }

// Sync is the urgent waiter of the group commit: it returns once every
// record appended before the call is stable. The first caller through
// flushMu fsyncs everything appended so far; callers queued behind it
// whose records that covered return without touching the disk. Callers
// needing a durability STATEMENT (an acknowledgement) must consult Healthy
// afterwards — a failed fsync is recorded, not returned. It is also the
// FsyncInterval timer: an append after it read its target arms the next.
func (l *Log) Sync() {
	l.sh.Mu.Lock()
	l.armed = false
	target := l.endLocked()
	l.sh.Mu.Unlock()
	l.syncTo(target)
}

// SyncTo is Sync for the records up to lsn, an LSN LogDecided returned:
// it returns once they are stable, fsyncing only when no sync covered them
// yet. Callers consult Healthy afterwards, as with Sync.
func (l *Log) SyncTo(lsn int64) { l.syncTo(lsn) }

func (l *Log) syncTo(target int64) {
	l.flushMu.Lock()
	l.sh.Mu.Lock()
	f, end := l.sh.F, l.endLocked()
	covered := l.stopped || l.synced >= target
	l.sh.Mu.Unlock()
	var ready []lazyWaiter
	if !covered {
		l.syncs.Add(1)
		if err := f.Datasync(); err != nil {
			l.recordErr(fmt.Errorf("txlog: sync: %w", err))
		} else {
			ready = l.advanceSynced(end)
		}
	}
	l.flushMu.Unlock()
	for _, w := range ready {
		w.fn()
	}
}

// advanceSynced raises the stable watermark to lsn and returns the lazy
// waiters it passed, for the caller to run once it holds no lock.
func (l *Log) advanceSynced(lsn int64) []lazyWaiter {
	l.sh.Mu.Lock()
	defer l.sh.Mu.Unlock()
	if lsn > l.synced {
		l.synced = lsn
	}
	n := 0
	for n < len(l.lazy) && l.lazy[n].lsn <= l.synced {
		n++
	}
	ready := l.lazy[:n:n]
	l.lazy = l.lazy[n:]
	return ready
}

// AfterSync is the lazy waiter of the group commit: fn runs once every
// record appended before the call is stable, on whichever goroutine's sync
// gets there — it must not block, and it must consult Healthy before
// making a durability statement. AfterSync never causes an fsync itself;
// an idle log's stragglers are flushed by the owner's periodic Sync. When
// the records are already stable, or the policy does not sync before
// acknowledging, fn runs at once; after Close it is dropped.
func (l *Log) AfterSync(fn func()) {
	l.sh.Mu.Lock()
	if l.stopped {
		l.sh.Mu.Unlock()
		return
	}
	if end := l.endLocked(); l.SyncOnAppend() && l.synced < end {
		l.lazy = append(l.lazy, lazyWaiter{lsn: end, fn: fn})
		l.sh.Mu.Unlock()
		return
	}
	l.sh.Mu.Unlock()
	fn()
}
