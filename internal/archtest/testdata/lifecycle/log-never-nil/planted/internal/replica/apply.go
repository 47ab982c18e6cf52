package replica

func (r *Runtime) apply() {
	if r.txl == nil { // want
		return
	}
	l := r.txl
	if nil != l { // want
		return
	}
}
