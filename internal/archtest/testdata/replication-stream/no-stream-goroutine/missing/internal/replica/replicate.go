package replica // want

func (r *Runtime) send(dc int) bool { return true }

func (r *Runtime) ship() {
	for dc := range r.dcs {
		go r.send(dc)
	}
}
