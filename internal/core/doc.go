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
// The client half of this package is the Wren snapshot state plugged into
// the shared session runtime, internal/session — which also states how a
// transaction that wrote nothing gives its coordinator context back.
package core
