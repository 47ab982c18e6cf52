package sst

func (e *Engine) Put(key string) {
	e.append(key)
	e.log.Datasync() // want
}

func (e *Engine) PutBatch(keys []string) {
	e.append(keys...)
	e.syncLog(e.log) // want
}

// Sync is the owner's barrier.
func (e *Engine) Sync() { e.syncLog(e.log) }
