package pool

type Stats struct{ Calls uint64 }
