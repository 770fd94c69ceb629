//go:build unix

package transport

import "syscall"

// RcvBuf reports the socket's effective receive buffer in bytes — what
// the kernel granted of the size Listen asked for — or 0 if it cannot
// be read.
func (e *Endpoint) RcvBuf() int64 {
	rc, err := e.conn.SyscallConn()
	if err != nil {
		return 0
	}
	var n int
	var optErr error
	err = rc.Control(func(fd uintptr) {
		n, optErr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	})
	if err != nil || optErr != nil {
		return 0
	}
	return int64(n)
}
