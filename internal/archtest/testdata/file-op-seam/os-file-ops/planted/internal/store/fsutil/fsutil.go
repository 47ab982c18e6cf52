package fsutil

import "os"

func Open(p string) (*os.File, error) { return os.OpenFile(p, os.O_RDWR, 0) }
