package wire

type Heartbeat struct{ TS uint64 }

func (m *Heartbeat) codec(c *coder) { c.Uvarint(&m.TS) }

func (m *Heartbeat) encodeTo(e *Encoder) { e.Uvarint(m.TS) } // want

func (m *Heartbeat) decodeFrom(d *Decoder) { m.TS = d.Uvarint() } // want

func decodeKVs(d *Decoder) []KV { return nil } // want
