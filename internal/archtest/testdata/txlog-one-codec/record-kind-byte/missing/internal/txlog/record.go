package txlog // want

import "wren/internal/wire"

func commitRecord(e *wire.Encoder, txID uint64) {
	e.Byte(recCommit) // want
}
