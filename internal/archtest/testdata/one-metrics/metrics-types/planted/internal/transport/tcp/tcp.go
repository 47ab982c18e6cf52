package tcp

type Stats struct{ Dials uint64 }
