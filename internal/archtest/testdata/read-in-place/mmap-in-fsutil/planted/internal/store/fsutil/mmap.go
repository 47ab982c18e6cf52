package fsutil

import "syscall"

func MapFile(fd, n int) ([]byte, error) {
	return syscall.Mmap(fd, 0, n, syscall.PROT_READ, syscall.MAP_SHARED)
}
