package main

type traceNet struct{ inner *tcp.Network }

func (n *traceNet) Register(id transport.NodeID, h transport.Handler) { n.inner.Register(id, h) }
