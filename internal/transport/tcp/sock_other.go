//go:build !linux

package tcp

import "syscall"

// enableInq has nothing to enable: without Linux's TCP_INQ hint the loop
// cannot tell a drained socket from a short read.
func enableInq(syscall.RawConn) bool { return false }

// sockReader issues plain reads.
type sockReader struct{}

// recv reads into p and reports that the socket may hold more, so the
// loop probes once per wake as net.Conn.Read does.
func (sockReader) recv(fd int, p []byte) (int, bool, error) {
	n, err := syscall.Read(fd, p)
	return n, true, err
}
