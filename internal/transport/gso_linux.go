//go:build linux

package transport

import (
	"encoding/binary"
	"net/netip"
	"syscall"
	"unsafe"
)

// udpSegment is UDP_SEGMENT (linux/udp.h, since 4.18), which the frozen
// syscall package does not name.
const udpSegment = 103

// segmentOOB builds, once per endpoint, the control message that makes
// one send many datagrams: level IPPROTO_UDP, type UDP_SEGMENT, a
// uint16 segment size that writeSegmented fills in per send.
func segmentOOB() []byte {
	oob := make([]byte, syscall.CmsgSpace(2))
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
	h.Level = syscall.IPPROTO_UDP
	h.Type = udpSegment
	h.SetLen(syscall.CmsgLen(2))
	return oob
}

// writeSegmented hands b to the kernel in one sendmsg, to be cut into
// datagrams of seg bytes on the way down the stack (UDP GSO).
func (e *Endpoint) writeSegmented(b []byte, seg int, to netip.AddrPort) error {
	binary.NativeEndian.PutUint16(e.oob[syscall.CmsgLen(0):], uint16(seg))
	_, _, err := e.conn.WriteMsgUDPAddrPort(b, e.oob, to)
	return err
}
