package pool // want

type stats struct{ calls uint64 }
