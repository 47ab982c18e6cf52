package replica

import "wren/internal/wire"

func (r *Runtime) shipTo() { r.send(&wire.Replicate{}) }

func (r *Runtime) resend(m *wire.Replicate) {
	r.send(&wire.Replicate{From: m.From}) // want
}
