//go:build !unix

package transport

import (
	"errors"
	"net"
	"syscall"
)

// RcvBuf reports 0: the effective receive buffer is not read on this
// platform.
func (e *Endpoint) RcvBuf() int64 { return 0 }

// SndBuf reports 0: the send buffer is not read on this platform.
func (e *Endpoint) SndBuf() int64 { return 0 }

// readRaw and acceptRaw are the readers of a loop, and there is no loop
// here (rt.Supported).
func readRaw(uintptr, []byte) (int, error) { return 0, errors.ErrUnsupported }

func acceptRaw(syscall.RawConn) (*net.TCPConn, error) { return nil, errors.ErrUnsupported }
