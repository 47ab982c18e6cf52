package obs

import (
	"fmt"
	"os"
)

func sink(line string) { fmt.Fprintln(os.Stderr, line) }
