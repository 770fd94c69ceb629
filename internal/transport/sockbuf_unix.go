//go:build unix

package transport

import (
	"errors"
	"fmt"
	"net"
	"os"
	"syscall"
)

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

// readRaw is one non-blocking read(2): a datagram without its source,
// or what a stream socket holds (0 at its end). n is negative when the
// socket is empty, and 0 when the read fails.
func readRaw(fd uintptr, b []byte) (n int, err error) {
	n, err = syscall.Read(int(fd), b)
	switch {
	case err == syscall.EAGAIN:
		return -1, nil
	case err != nil:
		return 0, err
	}
	return n, nil
}

// acceptRaw takes one pending connection off a listening socket without
// waiting, and nil when none is pending. A listener's RawConn.Read fails
// (EINVAL), so the accept(2) runs under Control.
func acceptRaw(rc syscall.RawConn) (*net.TCPConn, error) {
	nfd := -1
	var aerr error
	err := rc.Control(func(fd uintptr) {
		syscall.ForkLock.RLock() // no exec between accept and close-on-exec
		if nfd, _, aerr = syscall.Accept(int(fd)); aerr == nil {
			syscall.CloseOnExec(nfd)
		}
		syscall.ForkLock.RUnlock()
	})
	if aerr == syscall.EAGAIN || aerr == syscall.ECONNABORTED {
		return nil, nil
	}
	if err = errors.Join(err, aerr); err != nil {
		return nil, fmt.Errorf("transport: accept: %w", err)
	}
	f := os.NewFile(uintptr(nfd), "tcp")
	conn, err := net.FileConn(f) // a duplicate: f's own descriptor is closed either way
	if err = errors.Join(err, f.Close()); err != nil {
		if conn != nil {
			err = errors.Join(err, conn.Close())
		}
		return nil, fmt.Errorf("transport: accept: %w", err)
	}
	return conn.(*net.TCPConn), nil
}
