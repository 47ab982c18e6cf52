//go:build !linux

package fsutil

import "os"

// Datasync forces a file's data to stable storage. fdatasync is not
// portable (and on some platforms is weaker than its name), so everywhere
// but Linux this is File.Sync.
func Datasync(f *os.File) error { return f.Sync() }
