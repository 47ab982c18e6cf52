package cluster

import "wren/internal/core"

var closed = core.ErrClosed // want
