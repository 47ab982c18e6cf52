package chaos

type Network struct{ inner transport.Network }

func (n *Network) Register(id transport.NodeID, h transport.Handler) { n.inner.Register(id, h) } // want
