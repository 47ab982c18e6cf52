package txlog

func (l *Log) syncTo(target int64) { // want
	l.f.Sync()
}
