package fsutil

import (
	"fmt"
	"os"
	"syscall"
)

// MapFile maps the whole file at path read-only and shared, and closes the
// descriptor before returning: the mapping keeps the file's pages
// reachable on its own, even after the file is unlinked, until Unmap.
// Because the mapping is shared, it sees the page cache — a write through
// another descriptor shows, and a truncation behind it turns later
// accesses past the new end into faults (see runtime/debug.SetPanicOnFault).
// An empty file maps to a nil slice.
func MapFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		return nil, nil
	}
	if int64(int(size)) != size {
		return nil, fmt.Errorf("map %s: %d bytes exceed the address space", path, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, &os.PathError{Op: "mmap", Path: path, Err: err}
	}
	return data, nil
}

// Unmap releases a mapping MapFile returned. No slice into it may be used
// afterwards.
func Unmap(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	return syscall.Munmap(data)
}
