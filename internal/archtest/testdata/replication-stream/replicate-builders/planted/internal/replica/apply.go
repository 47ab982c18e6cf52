package replica

import "wren/internal/wire"

var zero = wire.Replicate{} // want

func (r *Runtime) install() { r.out = append(r.out, &wire.Replicate{}) }
