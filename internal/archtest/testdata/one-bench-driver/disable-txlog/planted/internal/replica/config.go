package replica

type Config struct {
	DisableTxLog bool // want
}
