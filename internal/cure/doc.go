// Package cure implements the Cure and H-Cure baselines the paper compares
// against (§V).
//
// Cure (Akkoorath et al., ICDCS'16) is the state-of-the-art TCC design:
// every item carries a dependency vector with one entry per DC, and a
// transaction's snapshot is a vector whose local entry is the transaction
// coordinator's *current clock value* and whose remote entries come from the
// stabilization protocol. Because the local entry may be "in the future"
// with respect to the snapshot installed by other partitions, a read can
// reach a laggard partition before the snapshot is installed there and must
// block until (a) all pending/committed transactions with smaller commit
// timestamps are applied and (b) the partition's clock passes the snapshot
// time (Figure 1a in the paper).
//
// H-Cure is Cure with Hybrid Logical Clocks: on receiving a read, a
// partition's HLC jumps to the snapshot timestamp, eliminating the
// clock-skew component of blocking — but not the wait for pending
// transactions. The paper uses it to show HLCs alone do not achieve
// nonblocking reads (§V, Figure 3).
//
// The server is the same partition server as Wren's — the runtime of
// internal/replica, which owns the coordinator, the 2PC commit, the apply
// pass, replication, heartbeats and GC — with only the vector snapshot
// plugged in: how a snapshot vector is assigned, the parked slice read,
// and the vector stabilization gossip. Performance comparisons thus
// isolate the protocol difference rather than implementation artifacts,
// the same approach the paper takes by implementing all three systems in
// one code base. The client is likewise Wren's session runtime
// (internal/session) with only the dependency vector plugged in.
package cure
