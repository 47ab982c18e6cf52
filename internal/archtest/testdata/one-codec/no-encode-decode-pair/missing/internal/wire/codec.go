package wire // want

func Encode(m Message) []byte { return nil }

func Decode(kind Kind, payload []byte) (Message, error) { return nil, nil }
