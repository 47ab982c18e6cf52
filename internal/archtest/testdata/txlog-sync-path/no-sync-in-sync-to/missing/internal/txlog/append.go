package txlog // want

func (l *Log) flushTo(target int64) { l.Sync() }
