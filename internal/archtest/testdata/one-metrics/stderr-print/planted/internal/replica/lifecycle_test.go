package replica

import (
	"fmt"
	"os"
)

func dump() { fmt.Fprintln(os.Stderr, "state") }
