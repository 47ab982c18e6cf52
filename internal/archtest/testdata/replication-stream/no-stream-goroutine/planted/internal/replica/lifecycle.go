package replica

func (r *Runtime) Start() { go r.applyLoop() }
