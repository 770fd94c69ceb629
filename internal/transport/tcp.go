package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"syscall"

	"dbo/internal/wire"
)

// The reverse path (trades, heartbeats, retransmission requests) relies
// on the paper's in-order, loss-signalled delivery assumption (§3). On
// loopback UDP that holds in practice; across a real datacenter the
// production-grade choice is TCP. This file provides a framed TCP
// variant of the endpoint: each message is a u32 length prefix followed
// by its wire encoding.

// maxFrame bounds a frame to catch corrupt prefixes early.
const maxFrame = 1 << 16

// TCPServer accepts framed-message connections, for an event loop to
// watch (Accept) or each on a reader goroutine of its own (Serve).
type TCPServer struct {
	ln     *net.TCPListener
	rc     syscall.RawConn
	closed atomic.Bool // stored under mu, so that register and Close's sweep agree

	mu    sync.Mutex
	conns map[*TCPConn]struct{}

	received                atomic.Int64
	cleanCloses, connErrors atomic.Int64
}

// ListenTCP binds a framed-TCP server.
func ListenTCP(addr string) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: tcp listen %q: %w", addr, err)
	}
	tl := ln.(*net.TCPListener)
	rc, err := tl.SyscallConn()
	if err != nil {
		return nil, errors.Join(fmt.Errorf("transport: raw conn of %q: %w", addr, err), ln.Close())
	}
	return &TCPServer{ln: tl, rc: rc, conns: make(map[*TCPConn]struct{})}, nil
}

// Addr returns the bound address.
func (s *TCPServer) Addr() net.Addr { return s.ln.Addr() }

// RawConn is the listener's raw connection, for an event loop to watch.
func (s *TCPServer) RawConn() syscall.RawConn { return s.rc }

// Accept takes one pending connection without waiting; nil when none is,
// or when Close has begun (register).
func (s *TCPServer) Accept() (*TCPConn, error) {
	conn, err := acceptRaw(s.rc)
	if conn == nil {
		return nil, err
	}
	return s.register(conn), nil
}

// Serve accepts connections until Close and reads each on a goroutine of
// its own, handing every message to h there, boxed (wire.Msg.Value). A
// connection has one peer, so its address is converted once.
func (s *TCPServer) Serve(h Handler) error {
	for {
		conn, err := s.ln.AcceptTCP()
		if err != nil {
			if s.closed.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("transport: accept: %w", err)
		}
		if c := s.register(conn); c != nil {
			from := net.UDPAddrFromAddrPort(conn.RemoteAddr().(*net.TCPAddr).AddrPort())
			go c.serve(func(m *wire.Msg) { h(m.Value(), from) })
		}
	}
}

// register records a freshly accepted conn so that Close will close it.
// Once Close has swept nothing would, and the conn would be read until
// the peer hung up: such a conn is refused (nil) and torn down here, as
// the shutdown close it is.
func (s *TCPServer) register(conn *net.TCPConn) *TCPConn {
	rc, err := conn.SyscallConn()
	c := &TCPConn{s: s, conn: conn, rc: rc, buf: make([]byte, 2*(4+maxFrame))}
	c.readf = c.read
	s.mu.Lock()
	refused := err != nil || s.closed.Load()
	if !refused {
		s.conns[c] = struct{}{}
	}
	s.mu.Unlock()
	if refused {
		s.finishConn(errors.Join(err, conn.Close()))
		return nil
	}
	return c
}

// finishConn classifies one connection's terminal error and reports it.
// A bare EOF on a frame boundary is the peer hanging up cleanly, and a
// closed socket during shutdown is the server's own doing; everything
// else — truncated frames, bad prefixes, decode failures, transport
// errors — is abnormal and must not be silently swallowed.
func (s *TCPServer) finishConn(err error) {
	if err == io.EOF || errors.Is(err, net.ErrClosed) || s.closed.Load() {
		s.cleanCloses.Add(1)
		return
	}
	s.connErrors.Add(1)
}

// Received reports messages dispatched so far.
func (s *TCPServer) Received() int64 { return s.received.Load() }

// ConnStats reports (clean closes, abnormal closes) so far.
func (s *TCPServer) ConnStats() (clean, errored int64) {
	return s.cleanCloses.Load(), s.connErrors.Load()
}

// Close stops accepting and closes every live connection.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed.Store(true)
	err := s.ln.Close()
	for c := range s.conns {
		err = errors.Join(err, c.conn.Close())
	}
	return err
}

// TCPConn is one accepted connection and its frame reader: buf[head:tail]
// is read and not handed over, a partial frame carried from one read to
// the next, and each whole frame is decoded in place into msg.
type TCPConn struct {
	s          *TCPServer
	conn       *net.TCPConn
	rc         syscall.RawConn
	buf        []byte
	head, tail int
	msg        wire.Msg
	park       bool                  // an empty socket parks the reader (Serve), not ends the call (Drain)
	err        error                 // why the stream ended
	readf      func(fd uintptr) bool // read, bound once so that a call takes no method value
}

// RawConn is the connection's raw connection, for an event loop to watch.
func (c *TCPConn) RawConn() syscall.RawConn { return c.rc }

// Drain is Endpoint.Drain for frames, h run outside the read lock. Once
// the stream has ended — the peer hung up (io.EOF on a frame boundary) or
// sent a frame that does not parse — it returns why, counted in
// ConnStats; the caller stops watching the connection and closes it.
func (c *TCPConn) Drain(h func(*wire.Msg), max int) (more bool, err error) {
	more = c.drain(h, max)
	return more, c.err
}

func (c *TCPConn) drain(h func(*wire.Msg), max int) (more bool) {
	for n := 0; n < max && c.err == nil; {
		if c.frame(h) {
			n++
		} else if c.err == nil && !c.fill() {
			return false
		}
	}
	return c.err == nil
}

// serve is Serve's reader goroutine, parked while the socket is empty.
func (c *TCPConn) serve(h func(*wire.Msg)) {
	c.park = true
	c.drain(h, math.MaxInt)
	_ = c.Close() //dbo:vet-ignore errdrop teardown of an already-failed or drained conn
}

// fill reads what the socket holds behind the buffered bytes, and reports
// whether it read any. A frame begun near the buffer's end is first moved
// to its front, since the rest of it might not fit.
func (c *TCPConn) fill() bool {
	if c.head == c.tail {
		c.head, c.tail = 0, 0
	} else if len(c.buf)-c.tail < 4+maxFrame {
		c.tail = copy(c.buf, c.buf[c.head:c.tail])
		c.head = 0
	}
	tail := c.tail
	c.fail(c.rc.Read(c.readf))
	return c.tail > tail
}

// read is fill's RawConn.Read callback: one read(2). An empty socket ends
// the call, or parks Serve's reader (false).
func (c *TCPConn) read(fd uintptr) bool {
	n, err := readRaw(fd, c.buf[c.tail:])
	switch {
	case n < 0:
		return !c.park
	case err != nil:
		c.fail(fmt.Errorf("transport: tcp read: %w", err))
	case n == 0 && c.head < c.tail:
		c.fail(fmt.Errorf("transport: truncated frame: %w", io.ErrUnexpectedEOF))
	case n == 0:
		c.fail(io.EOF)
	}
	c.tail += n
	return true
}

// frame hands the frame at the head of the buffer to h if it is whole.
func (c *TCPConn) frame(h func(*wire.Msg)) bool {
	b := c.buf[c.head:c.tail]
	if len(b) < 4 {
		return false
	}
	n := int(binary.LittleEndian.Uint32(b))
	switch {
	case n == 0 || n > maxFrame:
		c.fail(fmt.Errorf("transport: bad frame length %d", n))
		return false
	case len(b) < 4+n:
		return false
	}
	c.head += 4 + n
	if err := wire.DecodeInto(&c.msg, b[4:4+n]); err != nil {
		c.fail(err)
		return false
	}
	c.s.received.Add(1)
	h(&c.msg)
	return true
}

// fail ends the stream with err, if it has not ended, and counts how.
func (c *TCPConn) fail(err error) {
	if err != nil && c.err == nil {
		c.err = err
		c.s.finishConn(err)
	}
}

// Close forgets the connection and closes it.
func (c *TCPConn) Close() error {
	c.s.mu.Lock()
	delete(c.s.conns, c)
	c.s.mu.Unlock()
	return c.conn.Close()
}

// TCPClient is a framed-message connection to a TCPServer. Writes are
// serialized; TCP guarantees the in-order delivery DBO's reverse path
// assumes.
type TCPClient struct {
	conn  net.Conn
	mu    sync.Mutex
	frame []byte // length prefix + payload of the frame being written
	enc   []byte // Send's encode buffer
	sent  atomic.Int64
}

// DialTCP connects to a framed-TCP server.
func DialTCP(addr string) (*TCPClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: tcp dial %q: %w", addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		// Latency over throughput, always; on failure the socket just
		// keeps Nagle, which costs latency but not correctness.
		_ = tc.SetNoDelay(true) //dbo:vet-ignore errdrop best-effort latency knob
	}
	return &TCPClient{conn: conn, frame: make([]byte, 0, wire.MaxSize+4), enc: make([]byte, 0, wire.MaxSize)}, nil
}

// Write transmits one already-encoded message as a frame, in a single
// write (these are latency-critical trades, not bulk data).
func (c *TCPClient) Write(b []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.write(b)
}

// write frames b and writes it; the caller holds c.mu. A frame the
// receiver would reject as corrupt (payload larger than maxFrame) is
// refused here: sending one would poison the stream and kill the
// connection on the far side.
func (c *TCPClient) write(b []byte) error {
	if len(b) > maxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit %d", len(b), maxFrame)
	}
	c.frame = binary.LittleEndian.AppendUint32(c.frame[:0], uint32(len(b)))
	c.frame = append(c.frame, b...)
	if _, err := c.conn.Write(c.frame); err != nil {
		return fmt.Errorf("transport: tcp send: %w", err)
	}
	c.sent.Add(1)
	return nil
}

// Send wire-encodes v and transmits it: the boxed form of Write.
func (c *TCPClient) Send(v any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	enc, err := wire.Append(c.enc[:0], v)
	if err != nil {
		return err
	}
	c.enc = enc[:0]
	return c.write(enc)
}

// Sent reports messages written so far.
func (c *TCPClient) Sent() int64 { return c.sent.Load() }

// Close shuts the connection down.
func (c *TCPClient) Close() error { return c.conn.Close() }
