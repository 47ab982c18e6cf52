package sst

import sc "syscall"

func mapRun(fd, n int) ([]byte, error) {
	return sc.Mmap(fd, 0, n, sc.PROT_READ, sc.MAP_SHARED) // want
}
