package cluster

import (
	"wren/internal/transport"
	"wren/internal/transport/chaos" // want
)

type Config struct {
	Seed      int64
	ChaosSeed int64 // want
}

func fabric(net *transport.Memory) *chaos.Network { return chaos.New(net, 0) }
