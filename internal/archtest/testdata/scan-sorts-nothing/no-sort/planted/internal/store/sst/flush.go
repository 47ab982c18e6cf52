package sst

import srt "sort"

func (e *Engine) writeRun(keys []string) {
	srt.Strings(keys) // want
}
