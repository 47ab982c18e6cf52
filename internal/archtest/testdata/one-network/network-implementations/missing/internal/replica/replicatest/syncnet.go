package replicatest

type SyncNet struct{}

func (n *SyncNet) Register(id transport.NodeID, h transport.Handler) {}
