package tcp

import (
	"syscall"
	"unsafe"
)

// tcpInq is Linux's TCP_INQ socket option (since 4.18): recvmsg then
// reports, in a TCP_CM_INQ control message of the same number, how many
// bytes the receive queue still holds — non-zero also when only a FIN is
// left, so zero means a read now would return EAGAIN.
const tcpInq = 36

// enableInq asks the kernel for the TCP_INQ hint and reports whether it
// was granted. Where it is refused, recv reports every successful read as
// "more", and the loop probes once per wake as net.Conn.Read does.
func enableInq(raw syscall.RawConn) bool {
	var err error
	if cerr := raw.Control(func(fd uintptr) {
		err = syscall.SetsockoptInt(int(fd), syscall.SOL_TCP, tcpInq, 1)
	}); cerr != nil {
		return false
	}
	return err == nil
}

// sockReader issues one recvmsg per read; its control buffer lives in the
// read loop's state, so a read allocates nothing.
type sockReader struct {
	oob [32]byte // room for one cmsghdr and its int
}

// recv reads into p (never empty) and reports whether the socket may hold
// more: false only when the kernel's TCP_INQ hint says it is drained.
func (s *sockReader) recv(fd int, p []byte) (n int, more bool, err error) {
	n, oobn, _, _, err := syscall.Recvmsg(fd, p, s.oob[:], 0)
	if err != nil {
		return 0, false, err
	}
	more = true
	if hdr := syscall.CmsgLen(0); oobn >= syscall.CmsgLen(4) {
		cm := (*syscall.Cmsghdr)(unsafe.Pointer(&s.oob[0]))
		if cm.Level == syscall.SOL_TCP && cm.Type == tcpInq {
			more = *(*int32)(unsafe.Pointer(&s.oob[hdr])) != 0
		}
	}
	return n, more, nil
}
