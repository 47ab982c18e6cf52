package obs

type Counters struct{}
