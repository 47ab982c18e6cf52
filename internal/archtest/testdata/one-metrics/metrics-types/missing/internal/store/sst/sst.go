package sst

type Metrics struct{ e *Engine }
