package txlog

func (l *Log) compactFlushLocked() error { return tmpf.Sync() }

func (l *Log) rotate() error {
	l.Sync()
	return l.f.Sync() // want
}
