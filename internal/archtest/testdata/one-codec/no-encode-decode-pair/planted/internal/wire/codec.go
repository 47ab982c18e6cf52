package wire

func Encode(m Message) []byte { return nil }

func EncodeInto(e *Encoder, m Message) {}

func Decode(kind Kind, payload []byte) (Message, error) { return nil, nil }

func (c *coder) Uvarint(v *uint64) {}

func NewEncoder() *Encoder { return &Encoder{} }
