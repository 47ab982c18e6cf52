package replica

import tx "wren/internal/txlog"

type Runtime struct {
	txl *tx.Log
}

func open(log *tx.Log) bool {
	return log != nil // want
}
