package session

type Counters map[string]uint64 // want
