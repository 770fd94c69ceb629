//go:build !unix

package transport

// RcvBuf reports 0: the effective receive buffer is not read on this
// platform.
func (e *Endpoint) RcvBuf() int64 { return 0 }

// SndBuf reports 0: the send buffer is not read on this platform.
func (e *Endpoint) SndBuf() int64 { return 0 }

// readRaw finds the socket empty: no loop watches sockets here.
func readRaw(uintptr, []byte) (int, error) { return -1, nil }
