package replica

import (
	"fmt"
	"os"
)

func degraded(err error) {
	fmt.Fprintf(os.Stderr, "degraded: %v\n", err) // want
	fmt.Fprintln(os.Stdout, "ok")
}
