package replica // want

type Runtime struct {
	log any
}

func (r *Runtime) apply() bool { return r.log == nil }
