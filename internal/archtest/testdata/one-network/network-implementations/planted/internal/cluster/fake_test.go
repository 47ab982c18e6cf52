package cluster

type fakeNet struct{}

func (fakeNet) Register(id transport.NodeID, h transport.Handler) {} // want

func Register() {}
