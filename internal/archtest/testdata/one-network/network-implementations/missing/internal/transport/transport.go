package transport // want

type Memory struct{}

func (n *Memory) Attach(id NodeID, h Handler) {}
