package txlog

func (l *Log) recover() error { return l.f.Sync() }
