package sst // want

func (e *Engine) Put(key string) { e.append(key) }

func (e *Engine) Write(keys []string) { e.syncLog(e.log) }
