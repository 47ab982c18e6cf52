package sst

import "slices"

func (e *Engine) Scan(start, end string) {
	_ = slices.Sorted(slices.Values(e.keys)) // want
}

func (e *Engine) pinRuns(end string) {}

func openCursors(e *Engine) cursorSet { return cursorSet{} }

func (cs *cursorSet) seek(start string) {
	slices.SortFunc(cs.c, byKey) // want
}
