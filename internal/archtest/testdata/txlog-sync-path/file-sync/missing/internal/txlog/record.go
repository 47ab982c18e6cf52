package txlog // want

func (l *Log) recover() error { return l.f.Sync() }

func (l *Log) compact() error { return tmpf.Sync() } // want
