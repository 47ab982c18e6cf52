package fsutil

import (
	"fmt"
	"os"
)

// Tail is the write end of an append-only record log: the file, the
// length of its intact records, and whether its append path is frozen.
// Every log in a data directory appends through it (the engines' logs and
// the transaction log), so the rule below holds for all of them at once.
//
// A failed or short write MUST NOT leave a torn record mid-log: recovery
// stops at the first bad record, so appending past it would make every
// later record — even synced ones — unreachable after a restart. Append
// rolls a failed write back by truncating to the last intact offset; if
// even that fails the tail is frozen (Failed) until its owner rewrites or
// rotates the file, and memory stays authoritative.
type Tail struct {
	F      *os.File
	Size   int64 // bytes of intact records in F (the rollback point)
	Failed bool  // append path broken; frozen until the file is replaced
}

// Append writes b behind the intact records and reports whether it landed.
// Failures are reported through onErr. Callers serialize appends.
func (t *Tail) Append(b []byte, onErr func(error)) bool {
	if len(b) == 0 || t.Failed {
		return false
	}
	if _, err := t.F.Write(b); err != nil {
		onErr(fmt.Errorf("append: %w", err))
		if terr := t.F.Truncate(t.Size); terr == nil {
			if _, terr = t.F.Seek(t.Size, 0); terr == nil {
				return false
			}
		}
		t.Failed = true
		onErr(fmt.Errorf("append rollback failed, freezing log: %w", err))
		return false
	}
	t.Size += int64(len(b))
	return true
}
