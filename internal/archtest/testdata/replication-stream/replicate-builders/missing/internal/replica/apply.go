package replica // want

import "wren/internal/wire"

func (r *Runtime) install() { r.out = append(r.out, &wire.Replicate{}) }

func (r *Runtime) ship() { r.send(&wire.Replicate{}) } // want
