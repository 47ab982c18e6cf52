package transport

type Memory struct{}

func (n *Memory) Register(id NodeID, h Handler) {}

func (r *Registry) Register(name string) {} // want
