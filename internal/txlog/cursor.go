package txlog

import (
	"wren/internal/hlc"
	"wren/internal/wire"
)

// AdvanceCursor records that the peer DC has acknowledged every local
// transaction with commit timestamp ≤ upTo — the caller's replication
// protocol makes an acknowledgement vouch for the whole prefix below it.
// Lazily synced: replaying a stale cursor after a crash only re-sends
// transactions the receiver deduplicates.
func (l *Log) AdvanceCursor(dc int, upTo hlc.Timestamp) {
	if dc < 0 || dc >= l.numDCs {
		return
	}
	l.sh.Mu.Lock()
	defer l.sh.Mu.Unlock()
	if upTo <= l.cursor[dc] {
		return
	}
	l.cursor[dc] = upTo
	l.appendLocked(func(e *wire.Encoder) { encodeCursor(e, dc, upTo) })
}

// Cursor returns the replicated-up-to mark for a peer DC.
func (l *Log) Cursor(dc int) hlc.Timestamp {
	if dc < 0 || dc >= l.numDCs {
		return 0
	}
	l.sh.Mu.Lock()
	defer l.sh.Mu.Unlock()
	return l.cursor[dc]
}

// UnreplicatedTail returns the retained committed transactions above the
// peer DC's cursor, in commit-timestamp order — the tail a replication
// stream's rewind re-sends so the replicas reconverge.
func (l *Log) UnreplicatedTail(dc int) []*CommittedTx {
	if dc < 0 || dc >= l.numDCs {
		return nil
	}
	l.sh.Mu.Lock()
	cur := l.cursor[dc]
	out := make([]*CommittedTx, 0, 8)
	for _, c := range l.committed {
		if c.CT > cur {
			out = append(out, c)
		}
	}
	l.sh.Mu.Unlock()
	SortCommitted(out)
	return out
}
