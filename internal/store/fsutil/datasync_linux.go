//go:build linux

package fsutil

import (
	"os"
	"syscall"
)

// Datasync forces a file's data, and the metadata a later read needs to
// find it (its size, its block map), to stable storage. Unlike File.Sync it
// leaves the timestamps behind, so a write that lands in blocks the file
// already owns does not wait for a filesystem journal commit. Through
// SyscallConn, so a concurrent Close cannot hand the descriptor to another
// file mid-call.
func Datasync(f *os.File) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	err = rc.Control(func(fd uintptr) {
		for {
			if serr = syscall.Fdatasync(int(fd)); serr != syscall.EINTR {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	if serr != nil {
		return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: serr}
	}
	return nil
}
