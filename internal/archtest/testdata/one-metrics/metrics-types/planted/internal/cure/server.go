package cure

import "wren/internal/obs"

type Stats = obs.Snapshot
