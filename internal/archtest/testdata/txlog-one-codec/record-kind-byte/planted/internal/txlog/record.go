package txlog

import "wren/internal/wire"

func encodeCommit(e *wire.Encoder, txID uint64) {
	e.Byte(recCommit)
	e.Uvarint(txID)
}
