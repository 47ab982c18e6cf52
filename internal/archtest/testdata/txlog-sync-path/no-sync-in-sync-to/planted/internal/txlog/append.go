package txlog

func (l *Log) syncTo(target int64) {
	l.f.Datasync()
	l.Sync() // want
}

func (l *Log) Sync() { l.syncTo(l.size) }
