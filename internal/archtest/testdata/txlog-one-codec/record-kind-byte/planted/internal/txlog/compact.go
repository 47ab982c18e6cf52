package txlog

import "wren/internal/wire"

func (l *Log) rewrite(enc *wire.Encoder, txID uint64) {
	enc.Byte(recCommit) // want
	enc.Uvarint(txID)
	enc.Byte(0)
}
