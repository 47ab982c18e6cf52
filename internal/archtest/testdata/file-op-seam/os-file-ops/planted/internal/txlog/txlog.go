package txlog

import "os"

type Log struct {
	f *os.File // want
}
