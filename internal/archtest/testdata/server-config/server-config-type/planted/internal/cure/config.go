package cure

import "wren/internal/replica"

type ServerConfig = replica.Config
