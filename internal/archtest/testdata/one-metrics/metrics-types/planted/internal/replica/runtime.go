package replica

type (
	applyStats struct{ passes uint64 } // want
)
