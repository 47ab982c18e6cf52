package fsutil

import (
	"fmt"
	"io"
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
	F      File
	Size   int64 // bytes of intact records in F (the rollback point)
	Failed bool  // append path broken; frozen until the file is replaced
}

// OpenTail is the recover-on-open of an appended log: it opens the log at
// path, creating it empty if missing, replays its intact records through
// scan (which returns their length), truncates whatever follows them — the
// torn tail of a crash mid-append — and returns the Tail appending behind
// the last intact record, and whether a tail was cut. The truncation is
// not synced: a power loss that undoes it leaves the same torn tail for
// the next open to cut.
func OpenTail(fsys FS, path string, scan func(io.Reader) int64) (t Tail, torn bool, err error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return Tail{}, false, fmt.Errorf("open %s: %w", path, err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err == nil {
		_, err = f.Seek(0, io.SeekStart)
	}
	var good int64
	if err == nil {
		if good = scan(f); good < size {
			err = f.Truncate(good)
		}
	}
	if err == nil {
		_, err = f.Seek(good, io.SeekStart)
	}
	if err != nil {
		_ = f.Close()
		return Tail{}, false, fmt.Errorf("recover %s: %w", path, err)
	}
	return Tail{F: f, Size: good}, good < size, nil
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
			if _, terr = t.F.Seek(t.Size, io.SeekStart); terr == nil {
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
