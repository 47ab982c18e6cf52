package cure

type ServerConfig map[string]int // want
