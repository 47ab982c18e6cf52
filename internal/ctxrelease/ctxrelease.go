// Package ctxrelease is the client-side bookkeeping that releases the
// coordinator context of a transaction which ended without a COMMIT round
// — an empty write set, an abort, or a commit shed before it ran. The
// session runtime (internal/session) keeps one Releaser per session; the
// rule it enforces is stated in that package's comment.
//
// A session runs one transaction at a time, so at most one finished
// transaction is ever waiting for its release. It leaves by exactly one of
// two routes: the session's next Begin carries its id to the same
// coordinator (Take, then Now only if that attempt fails), or an explicit
// release is sent off the caller's path — when the next Begin goes
// elsewhere, when the session closes (Flush), or when Grace passes with no
// Begin at all.
package ctxrelease

import (
	"sync"
	"time"

	"wren/internal/transport"
)

// Grace is how long a finished transaction waits for the session's next
// Begin before its context is released explicitly. A closed-loop session
// begins again within microseconds; an idle one must not pin the
// coordinator's version-GC floor, so the wait is short and fixed.
const Grace = 10 * time.Millisecond

// Releaser tracks one session's finished-but-unreleased transaction.
type Releaser struct {
	// send performs the explicit release of txID at coord — one empty
	// CommitReq, best-effort. It blocks for a round trip, so the Releaser
	// only ever calls it on a goroutine of its own.
	send func(coord transport.NodeID, txID uint64)

	mu    sync.Mutex
	coord transport.NodeID
	txID  uint64    // 0: nothing waiting (transaction ids are never zero)
	due   time.Time // when the waiting transaction's grace ends
	timer *time.Timer
}

// New returns a Releaser that releases explicitly through send.
func New(send func(coord transport.NodeID, txID uint64)) *Releaser {
	return &Releaser{send: send}
}

// Defer records that transaction txID at coord has finished locally and
// starts its grace period. Nothing is waiting at that point: the Begin that
// opened the transaction took whatever was.
func (r *Releaser) Defer(coord transport.NodeID, txID uint64) {
	r.mu.Lock()
	r.coord, r.txID, r.due = coord, txID, time.Now().Add(Grace)
	if r.timer == nil {
		r.timer = time.AfterFunc(Grace, r.expire)
	} else {
		r.timer.Reset(Grace)
	}
	r.mu.Unlock()
}

// Take hands the waiting transaction, if any, to a Begin attempt on coord
// and returns the id that attempt's StartTxReq must carry as Done (0 for
// none). A transaction waiting at a different coordinator is released
// explicitly instead. After Take nothing is waiting: the attempt owns the
// id, and must pass it to Now if it fails.
func (r *Releaser) Take(coord transport.NodeID) uint64 {
	r.mu.Lock()
	at, id := r.takeLocked()
	r.mu.Unlock()
	if at == coord {
		return id
	}
	r.Now(at, id)
	return 0
}

// Now releases txID at coord explicitly, off the caller's path. A zero
// txID is a no-op, so callers can pass Take's result through unchecked.
func (r *Releaser) Now(coord transport.NodeID, txID uint64) {
	if txID != 0 {
		go r.send(coord, txID)
	}
}

// Flush releases whatever is waiting without waiting out its grace; the
// session is closing.
func (r *Releaser) Flush() {
	r.mu.Lock()
	at, id := r.takeLocked()
	r.mu.Unlock()
	r.Now(at, id)
}

// expire is the grace timer's function; it runs on the timer's goroutine.
func (r *Releaser) expire() {
	r.mu.Lock()
	// A firing that lost the race with Take finds nothing waiting; one that
	// lost it with Take and the next Defer finds a younger transaction whose
	// own firing is still to come.
	if r.txID == 0 || time.Now().Before(r.due) {
		r.mu.Unlock()
		return
	}
	at, id := r.takeLocked()
	r.mu.Unlock()
	r.send(at, id)
}

// takeLocked empties the waiting slot and stops its timer, returning what
// was waiting (id 0 for nothing). Caller holds r.mu.
func (r *Releaser) takeLocked() (transport.NodeID, uint64) {
	at, id := r.coord, r.txID
	if id != 0 {
		r.txID = 0
		r.timer.Stop()
	}
	return at, id
}
