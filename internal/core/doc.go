// Package core implements the paper's primary contribution: the Wren
// partition server and client.
//
// Wren is a Transactional Causal Consistency (TCC) key-value store with
// nonblocking reads. Three protocols cooperate:
//
//   - CANToR (Client-Assisted Nonblocking Transactional Reads): a
//     transaction's snapshot is the union of the local stable snapshot —
//     the freshest causal snapshot installed by *every* partition in the DC
//     — and a per-client cache holding the client's own writes not yet
//     covered by that snapshot. Because everything at or below the local
//     stable time (LST) is installed everywhere, reads never block; the
//     cache preserves read-your-writes (paper §III-B, Algorithm 1).
//
//   - BDT (Binary Dependency Time): every item carries exactly two scalar
//     timestamps regardless of system size — ut (the commit timestamp,
//     summarizing local dependencies) and rdt (the remote dependency time,
//     summarizing dependencies on all remote DCs) (paper §III-C).
//
//   - BiST (Binary Stable Time): partitions within a DC periodically
//     exchange two scalars (their local version clock and the minimum of
//     their remote version-vector entries); the DC-wide minima are the LST
//     and the remote stable time RST (paper §III-C, Algorithm 4).
//
// Commit uses a two-phase protocol within the DC (Algorithms 2 and 3) with
// hybrid logical clocks; updates replicate asynchronously to remote DCs and
// become visible there once stable, preserving availability under inter-DC
// network partitions.
//
// # Ending a transaction that wrote nothing: the release rule
//
// As in Algorithm 1, COMMIT is only sent when WS ≠ ∅. Tx.Commit with an
// empty write set, and Tx.Abort, return locally; the coordinator still
// holds the transaction's context (its snapshot, which pins the version-GC
// floor of the whole DC), and the session gives it back like this:
//
//   - The session's next Begin, when it goes to the same coordinator,
//     carries the finished transaction's id (StartTxReq.Done) and the
//     coordinator drops that context before it assigns the new snapshot. A
//     closed-loop read-only transaction is therefore two rounds, Begin and
//     Read.
//   - When that cannot happen — the next Begin targets another coordinator,
//     the carrying attempt fails, the session is closed, or no Begin follows
//     within ctxrelease.Grace (10 ms) — the client sends one explicit
//     release, an empty CommitReq, off the caller's path.
//
// The rule: a finished transaction's context MUST NOT outlive grace plus
// one round trip, whatever the session does next (an idle session must
// never hold the GC floor back for the coordinator's 30 s TxContextTTL, which
// remains only the backstop for lost messages and dead clients); and a
// context MUST NOT be released before the Commit or Abort that ends its
// transaction has returned. The bookkeeping lives once, in
// internal/ctxrelease, for this client and package cure's. A read that
// reaches a coordinator without the context fails with ErrTxExpired rather
// than reporting its keys absent.
package core
