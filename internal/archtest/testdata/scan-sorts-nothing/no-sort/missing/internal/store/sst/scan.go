package sst

func (e *Engine) Scan(start, end string) {}

func (e *Engine) pinRuns(end string) {}

func openCursors(e *Engine) []cursor { return nil }
