package replica

func noLog(r *Runtime) bool { return r.txl == nil }
