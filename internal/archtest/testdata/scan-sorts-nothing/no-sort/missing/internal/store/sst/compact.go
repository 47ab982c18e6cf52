package sst // want

import "slices"

func (e *Engine) compact(runs []*run) { slices.SortFunc(runs, byLevel) }
