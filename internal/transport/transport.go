// Package transport provides the sockets of the live deployment: one UDP
// endpoint per node and wire-encoded datagrams, and framed TCP for the
// reverse path (tcp.go). The typed calls are the live path and never
// wait: Drain, called by a node's loop when a socket is readable, hands
// decoded messages to a handler, and Write and WriteSegments send. Serve
// and Send are the boxed forms, Serve a receive loop of its own.
//
// Write is one datagram and one trip down the kernel's stack.
// WriteSegments is a run of equal-size records to one destination in
// one trip: on Linux a single sendmsg the kernel cuts into one datagram
// per record (UDP_SEGMENT), so receivers read exactly what a loop over
// Write would have sent them; elsewhere, or once the kernel has refused
// such a send, it is that loop.
//
// UDP matches the paper's deployment ("the UDP stream of market data
// from the CES", §6.3); loss and reordering are handled one layer up
// (retransmission requests, delivery-clock semantics).
package transport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"syscall"

	"dbo/internal/wire"
)

// Endpoint is one node's UDP socket.
type Endpoint struct {
	conn *net.UDPConn
	rc   syscall.RawConn

	// Drain's buffer, Msg, handler and reads left, and its callback,
	// bound once so that a call takes no method value.
	rbuf   []byte
	rmsg   wire.Msg
	dh     func(*wire.Msg)
	dleft  int
	drainf func(fd uintptr) bool

	mu  sync.Mutex // guards Send's encode buffer
	buf []byte

	// oob is WriteSegments' control message, built by Listen; its size
	// field is rewritten by each segmented send. gsoOff latches once the
	// platform or the kernel has said no to one.
	oob    []byte
	gsoOff atomic.Bool

	// Counters (atomic; read with Stats, Writes and RxErrors). sent
	// counts datagrams; saved counts those that did not cost a syscall of
	// their own (k-1 of a segmented send of k).
	sent, saved, received, decodeErrs, rxErrs atomic.Int64
}

// MaxSegments is the most datagrams one WriteSegments call may carry
// (UDP_MAX_SEGMENTS in the kernels that introduced UDP_SEGMENT).
const MaxSegments = 64

// rcvBuf is the receive buffer every endpoint asks for. The default
// holds ~256 small datagrams, which a saturated exchange overflows
// silently; the kernel clamps the request to net.core.rmem_max, and
// RcvBuf reports what was granted.
const rcvBuf = 4 << 20

// Listen opens a UDP endpoint on addr (use "127.0.0.1:0" for an
// ephemeral loopback port).
func Listen(addr string) (*Endpoint, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", addr, err)
	}
	if err := conn.SetReadBuffer(rcvBuf); err != nil {
		return nil, errors.Join(fmt.Errorf("transport: receive buffer of %q: %w", addr, err), conn.Close())
	}
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, errors.Join(fmt.Errorf("transport: raw conn of %q: %w", addr, err), conn.Close())
	}
	e := &Endpoint{
		conn: conn, rc: rc, rbuf: make([]byte, 64*1024), // a maximally padded probe
		buf: make([]byte, 0, wire.MaxSize), oob: segmentOOB(),
	}
	e.drainf = e.drain
	e.gsoOff.Store(e.oob == nil)
	return e, nil
}

// RawConn is the socket's raw connection, for an event loop to watch.
func (e *Endpoint) RawConn() syscall.RawConn { return e.rc }

// LocalAddr returns the bound address.
func (e *Endpoint) LocalAddr() *net.UDPAddr { return e.conn.LocalAddr().(*net.UDPAddr) }

// Write transmits one already-encoded message to the destination. It
// takes no lock and keeps no buffer: a caller that encodes once can
// write the same bytes to many destinations.
func (e *Endpoint) Write(b []byte, to netip.AddrPort) error {
	if _, err := e.conn.WriteToUDPAddrPort(b, to); err != nil {
		return fmt.Errorf("transport: send to %v: %w", to, err)
	}
	e.sent.Add(1)
	return nil
}

// WriteSegments transmits b to the destination as consecutive datagrams
// of seg bytes each (a shorter last one if len(b) is not a multiple):
// what a loop over Write would put on the wire, and on Linux one
// syscall and one trip down the stack for all of them. More than
// MaxSegments segments is an error; one segment is a plain Write.
//
// If the kernel refuses a segmented send, for any reason (more than
// 65507 bytes in one call is one), the same bytes are resent datagram
// by datagram — nothing is lost that Write would have delivered — and
// the endpoint stops segmenting for good (GSODisabled). Unlike Write it
// is for one goroutine at a time: the control message is the endpoint's
// own.
func (e *Endpoint) WriteSegments(b []byte, seg int, to netip.AddrPort) error {
	if seg <= 0 || len(b) > MaxSegments*seg {
		return fmt.Errorf("transport: %d bytes in segments of %d: want 1 to %d segments", len(b), seg, MaxSegments)
	}
	if len(b) > seg && !e.gsoOff.Load() {
		if err := e.writeSegmented(b, seg, to); err == nil {
			k := int64((len(b) + seg - 1) / seg)
			e.sent.Add(k)
			e.saved.Add(k - 1)
			return nil
		}
		e.gsoOff.Store(true)
	}
	var first error
	for len(b) > 0 {
		n := min(seg, len(b))
		if err := e.Write(b[:n], to); err != nil && first == nil {
			first = err
		}
		b = b[n:]
	}
	return first
}

// Send wire-encodes v and transmits it to the destination: the boxed
// form of Write, safe for concurrent senders.
func (e *Endpoint) Send(v any, to *net.UDPAddr) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	buf, err := wire.Append(e.buf[:0], v)
	if err != nil {
		return err
	}
	e.buf = buf[:0]
	return e.Write(buf, to.AddrPort())
}

// Drain reads at most max of the datagrams queued at the socket, without
// waiting, and hands each decoded message to h; it reports whether it
// stopped at max. Undecodable datagrams and failed reads are counted
// (Stats, RxErrors) and skipped. For one goroutine at a time, and not
// beside Serve. The *wire.Msg is h's for the call only: the next message
// is decoded into it, and m.Probe.Pad into storage the reader re-uses.
func (e *Endpoint) Drain(h func(*wire.Msg), max int) (more bool) {
	e.dh, e.dleft = h, max
	return e.rc.Read(e.drainf) == nil && e.dleft == 0
}

// drain is Drain's RawConn.Read callback: Read holds the socket's read
// lock around it, so a concurrent Close waits, and it returns true, so
// Read never parks.
func (e *Endpoint) drain(fd uintptr) bool {
	for ; e.dleft > 0; e.dleft-- {
		n, err := readRaw(fd, e.rbuf)
		switch {
		case n < 0:
			return true
		case err != nil:
			e.rxErrs.Add(1)
			continue
		}
		if wire.DecodeInto(&e.rmsg, e.rbuf[:n]) != nil {
			e.decodeErrs.Add(1)
			continue
		}
		e.received.Add(1)
		e.dh(&e.rmsg)
	}
	return true
}

// Handler consumes one decoded message, boxed.
type Handler func(v any, from *net.UDPAddr)

// Serve reads datagrams and hands each decoded message, boxed
// (wire.Msg.Value), to h until Close. Run it on its own goroutine.
func (e *Endpoint) Serve(h Handler) error {
	buf := make([]byte, 64*1024)
	var m wire.Msg
	for {
		n, from, err := e.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("transport: read: %w", err)
		}
		if err := wire.DecodeInto(&m, buf[:n]); err != nil {
			e.decodeErrs.Add(1) // a malformed datagram must not kill the node
			continue
		}
		e.received.Add(1)
		h(m.Value(), net.UDPAddrFromAddrPort(from))
	}
}

// Stats reports (sent, received, decode errors).
func (e *Endpoint) Stats() (sent, received, decodeErrs int64) {
	return e.sent.Load(), e.received.Load(), e.decodeErrs.Load()
}

// RxErrors reports the reads Drain saw fail with anything but an empty
// socket.
func (e *Endpoint) RxErrors() int64 { return e.rxErrs.Load() }

// Writes reports the syscalls that carried the sent datagrams: equal to
// sent unless WriteSegments put several in one.
func (e *Endpoint) Writes() int64 { return e.sent.Load() - e.saved.Load() }

// GSODisabled reports 1 if WriteSegments is a loop over Write on this
// endpoint — the platform has no UDP segmentation offload, or the kernel
// refused a segmented send — and 0 while it segments.
func (e *Endpoint) GSODisabled() int64 {
	if e.gsoOff.Load() {
		return 1
	}
	return 0
}

// Close shuts the socket down, unblocking Serve and ending Drain.
func (e *Endpoint) Close() error { return e.conn.Close() }
