//go:build linux

package fsutil

import (
	"os"
	"syscall"
)

// datasync is fdatasync: unlike File.Sync it leaves the timestamps behind,
// so a write that lands in blocks the file already owns does not wait for
// a filesystem journal commit. Through SyscallConn, so a concurrent Close
// cannot hand the descriptor to another file mid-call.
func datasync(f *os.File) error {
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
