//go:build unix

package transport

import "syscall"

// RcvBuf reports the socket's effective receive buffer in bytes — what
// the kernel granted of the size Listen asked for — or 0 if it cannot
// be read.
func (e *Endpoint) RcvBuf() int64 { return e.sockBuf(syscall.SO_RCVBUF) }

// SndBuf reports the socket's send buffer in bytes, the kernel's
// default (Listen does not set it), or 0 if it cannot be read.
func (e *Endpoint) SndBuf() int64 { return e.sockBuf(syscall.SO_SNDBUF) }

func (e *Endpoint) sockBuf(opt int) int64 {
	rc, err := e.conn.SyscallConn()
	if err != nil {
		return 0
	}
	var n int
	var optErr error
	err = rc.Control(func(fd uintptr) {
		n, optErr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, opt)
	})
	if err != nil || optErr != nil {
		return 0
	}
	return int64(n)
}

// readRaw is one non-blocking read(2) of a datagram, without its source;
// n is negative when the socket is empty.
func readRaw(fd uintptr, b []byte) (n int, err error) {
	n, err = syscall.Read(int(fd), b)
	if err == syscall.EAGAIN {
		return -1, nil
	}
	return n, err
}
