package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"

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

// readFrame reads one framed message from r into m. scratch (capacity
// at least 4) takes the length prefix and then the payload, and is
// returned, grown if the payload needed it.
func readFrame(r *bufio.Reader, scratch []byte, m *wire.Msg) ([]byte, error) {
	hdr := scratch[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return scratch, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n == 0 || n > maxFrame {
		return scratch, fmt.Errorf("transport: bad frame length %d", n)
	}
	if cap(scratch) < int(n) {
		scratch = make([]byte, n)
	}
	scratch = scratch[:n]
	if _, err := io.ReadFull(r, scratch); err != nil {
		return scratch, fmt.Errorf("transport: truncated frame: %w", err)
	}
	return scratch, wire.DecodeInto(m, scratch)
}

// TCPServer accepts framed-message connections.
type TCPServer struct {
	ln     net.Listener
	closed atomic.Bool // stored under mu, so that register and Close's sweep agree

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	// OnConnClose, if set before Serve, observes every connection
	// teardown: nil for a clean close (peer EOF between frames, or
	// server shutdown), non-nil for an abnormal one (corrupt frame,
	// truncated frame, decode failure, socket error). It runs on the
	// connection's goroutine.
	OnConnClose func(err error)

	received                atomic.Int64
	cleanCloses, connErrors atomic.Int64
}

// ListenTCP binds a framed-TCP server.
func ListenTCP(addr string) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: tcp listen %q: %w", addr, err)
	}
	return &TCPServer{ln: ln, conns: make(map[net.Conn]struct{})}, nil
}

// Addr returns the bound address.
func (s *TCPServer) Addr() net.Addr { return s.ln.Addr() }

// ServeMsg accepts connections and hands every received message to h
// until Close. h runs on per-connection goroutines, each with its own
// Msg under Endpoint.ServeMsg's ownership rule: yours for the call.
func (s *TCPServer) ServeMsg(h func(m *wire.Msg, from netip.AddrPort)) error {
	return s.accept(func(from netip.AddrPort) func(*wire.Msg) {
		return func(m *wire.Msg) { h(m, from) }
	})
}

// Serve is ServeMsg for a boxed handler. A connection has one peer, so
// its address is converted once, not per message.
func (s *TCPServer) Serve(h Handler) error {
	return s.accept(func(from netip.AddrPort) func(*wire.Msg) {
		ua := net.UDPAddrFromAddrPort(from)
		return func(m *wire.Msg) { h(m.Value(), ua) }
	})
}

// accept is the accept loop; bind makes a connection's handler from its
// peer address.
func (s *TCPServer) accept(bind func(from netip.AddrPort) func(*wire.Msg)) error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.closed.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("transport: accept: %w", err)
		}
		if !s.register(conn) {
			continue
		}
		var from netip.AddrPort
		if ta, ok := conn.RemoteAddr().(*net.TCPAddr); ok {
			from = ta.AddrPort()
		}
		go s.serveConn(conn, bind(from))
	}
}

// register records a freshly accepted conn so that Close will close it.
// Once Close has swept nothing would, and the conn's reader goroutine
// would live until the peer hung up: such a conn is refused and torn
// down here, as the shutdown close it is.
func (s *TCPServer) register(conn net.Conn) bool {
	s.mu.Lock()
	closed := s.closed.Load()
	if !closed {
		s.conns[conn] = struct{}{}
	}
	s.mu.Unlock()
	if closed {
		s.finishConn(conn.Close())
	}
	return !closed
}

func (s *TCPServer) serveConn(conn net.Conn, h func(*wire.Msg)) {
	defer func() {
		_ = conn.Close() //dbo:vet-ignore errdrop teardown of an already-failed or drained conn
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	r := bufio.NewReader(conn)
	scratch := make([]byte, 0, wire.MaxSize)
	var m wire.Msg
	for {
		sc, err := readFrame(r, scratch, &m)
		scratch = sc
		if err != nil {
			s.finishConn(err)
			return
		}
		s.received.Add(1)
		h(&m)
	}
}

// finishConn classifies one connection's terminal error and reports it.
// A bare EOF on a frame boundary is the peer hanging up cleanly, and a
// closed socket during shutdown is the server's own doing; everything
// else — truncated frames, bad prefixes, decode failures, transport
// errors — is abnormal and must not be silently swallowed.
func (s *TCPServer) finishConn(err error) {
	if err == io.EOF || errors.Is(err, net.ErrClosed) || s.closed.Load() {
		s.cleanCloses.Add(1)
		if s.OnConnClose != nil {
			s.OnConnClose(nil)
		}
		return
	}
	s.connErrors.Add(1)
	if s.OnConnClose != nil {
		s.OnConnClose(err)
	}
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
		if cerr := c.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
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
