package sst

import "slices"

func (e *Engine) compact(runs []*run) { slices.SortFunc(runs, byLevel) }
