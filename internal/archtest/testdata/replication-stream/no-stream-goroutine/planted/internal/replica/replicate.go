package replica

func (r *Runtime) shipTo(dc int) bool { return true }

func (r *Runtime) ship() {
	for dc := range r.dcs {
		go r.shipTo(dc) // want
	}
}
