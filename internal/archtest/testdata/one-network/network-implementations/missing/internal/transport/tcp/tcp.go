package tcp

type Network struct{}

func (n *Network) Register(id transport.NodeID, h transport.Handler) {}
