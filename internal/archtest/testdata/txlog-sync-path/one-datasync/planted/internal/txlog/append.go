package txlog

func (l *Log) syncTo(target int64) {
	l.f.Datasync()
	l.f.Datasync() // want
}
