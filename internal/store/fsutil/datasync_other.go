//go:build !linux

package fsutil

import "os"

// datasync is File.Sync everywhere but Linux: fdatasync is not portable
// (and on some platforms is weaker than its name).
func datasync(f *os.File) error { return f.Sync() }
