package transport

import (
	"bytes"
	"encoding/binary"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"dbo/internal/market"
	"dbo/internal/rt"
	"dbo/internal/wire"
)

// Drain reads what is queued, at most its budget per call, in order; it
// skips and counts what does not decode, and it never waits: an empty
// or a closed socket ends it.
func TestDrainReadsQueuedDatagramsWithinItsBudget(t *testing.T) {
	a, b := pair(t)
	to := b.LocalAddr().AddrPort()
	const n = 10
	for i := 1; i <= n; i++ {
		if err := a.Write(wire.AppendTrade(nil, &market.Trade{MP: 1, Seq: market.TradeSeq(i)}), to); err != nil {
			t.Fatal(err)
		}
		if i == 5 {
			if err := a.Write([]byte{0xEE, 1, 2}, to); err != nil {
				t.Fatal(err)
			}
		}
	}
	var got []market.TradeSeq
	h := func(m *wire.Msg) { got = append(got, m.Trade.Seq) }
	if !b.Drain(h, 4) {
		t.Fatal("a drain that stopped at its budget of 4 with 11 queued reports no more")
	}
	if len(got) != 4 {
		t.Fatalf("a budget of 4 handed over %d messages", len(got))
	}
	for b.Drain(h, 4) {
	}
	if len(got) != n {
		t.Fatalf("%d of %d messages drained", len(got), n)
	}
	for i, seq := range got {
		if seq != market.TradeSeq(i+1) {
			t.Fatalf("message %d has seq %d: %v", i, seq, got)
		}
	}
	if _, received, bad := b.Stats(); received != n || bad != 1 {
		t.Fatalf("received %d, decode errors %d; want %d and 1", received, bad, n)
	}
	if b.RxErrors() != 0 {
		t.Fatalf("%d read errors on a healthy socket", b.RxErrors())
	}
	if b.Drain(h, 4) {
		t.Fatal("an empty socket reports more")
	}
	b.Close()
	if b.Drain(h, 4) {
		t.Fatal("a closed socket reports more")
	}
}

// Drain allocates nothing per datagram: the buffer, the Msg and the read
// callback are the endpoint's own.
func TestDrainZeroAlloc(t *testing.T) {
	a, b := pair(t)
	to := b.LocalAddr().AddrPort()
	handled := 0
	h := func(*wire.Msg) { handled++ }
	zeroAllocRounds(t, func(p []byte) error { return a.Write(p, to) }, func() {
		for b.Drain(h, 16) {
		}
	}, &handled)
}

// zeroAllocRounds has write send rounds of msgRound messages and an end
// marker, each followed by wait for the reader to have handled them, and
// requires that the rounds allocate nothing and hand over every message.
func zeroAllocRounds(t *testing.T, write func([]byte) error, wait func(), handled *int) {
	pkts, end := roundPackets()
	round := func() {
		for i := 0; i <= msgRound; i++ {
			b := end
			if i < msgRound {
				b = pkts[i%2]
			}
			if err := write(b); err != nil {
				t.Fatal(err)
			}
		}
		wait()
	}
	round()
	if n := testing.AllocsPerRun(20, round); n != 0 {
		t.Fatalf("%.2f allocations per round of %d messages drained, want 0", n, msgRound+1)
	}
	if want := 22 * (msgRound + 1); *handled != want {
		t.Fatalf("%d of %d messages drained", *handled, want)
	}
}

func listenTCP(t testing.TB) *TCPServer {
	t.Helper()
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// watchTCP has a loop read srv as a node's does: it watches the listener,
// accepts what waits and watches each connection, handing its frames to
// h until the stream ends; then it unwatches the connection and closes it.
func watchTCP(t testing.TB, srv *TCPServer, h func(*wire.Msg)) {
	l := rt.NewLoop()
	accept := func() bool {
		for c, _ := srv.Accept(); c != nil; c, _ = srv.Accept() {
			l.Watch(c.RawConn(), func() bool {
				more, err := c.Drain(h, 16)
				if err != nil {
					l.Unwatch(c.RawConn())
					c.Close()
				}
				return more
			})
		}
		return false
	}
	l.Watch(srv.RawConn(), accept)
	stopped := make(chan struct{})
	go func() { l.Run(); close(stopped) }()
	t.Cleanup(func() { l.Stop(); <-stopped })
}

// acceptOne dials srv and polls Accept until it hands the connection
// over: the test goroutine is the loop.
func acceptOne(t *testing.T, srv *TCPServer) (*TCPConn, *net.TCPConn) {
	peer, err := net.DialTCP("tcp", nil, srv.Addr().(*net.TCPAddr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if c, err := srv.Accept(); err != nil || c != nil {
			if err != nil {
				t.Fatal(err)
			}
			return c, peer
		}
	}
	t.Fatal("a dialled connection was never accepted")
	return nil, nil
}

// frames is the stream a TCPClient writes for these encoded messages,
// and the offset at which each frame ends.
func frames(pkts [][]byte) (stream []byte, ends []int) {
	for _, p := range pkts {
		stream = append(binary.LittleEndian.AppendUint32(stream, uint32(len(p))), p...)
		ends = append(ends, len(stream))
	}
	return stream, ends
}

// A frame reaches Drain's handler whole or not at all, however the stream
// is cut. The eight messages as one stream are written in two pieces at
// every byte boundary in turn, and the first piece is drained to the
// last byte before the second is written, so the reader carries a
// partial frame across calls at every offset; they arrive intact and in
// order.
func TestTCPDrainSurvivesEverySplit(t *testing.T) {
	c, peer := acceptOne(t, listenTCP(t))
	if err := peer.SetNoDelay(true); err != nil {
		t.Fatal(err)
	}
	want := everyType()
	stream, ends := frames(encodeAll(t, want))
	var got []any
	h := func(m *wire.Msg) { got = append(got, m.Value()) }
	// drainTo drains until the stream's first n bytes are in: whole frames
	// handed over, the rest held.
	drainTo := func(n int) {
		whole, done := 0, 0
		for whole < len(ends) && ends[whole] <= n {
			done, whole = ends[whole], whole+1
		}
		for deadline := time.Now().Add(2 * time.Second); len(got) != whole || c.tail-c.head != n-done; {
			if _, err := c.Drain(h, 4); err != nil || len(got) > whole || time.Now().After(deadline) {
				t.Fatalf("cut at %d: %d messages in and %d bytes held (%v), want %d and %d", n, len(got), c.tail-c.head, err, whole, n-done)
			}
		}
	}
	for cut := 1; cut < len(stream); cut++ {
		got = got[:0]
		for _, piece := range [][2]int{{0, cut}, {cut, len(stream)}} {
			if _, err := peer.Write(stream[piece[0]:piece[1]]); err != nil {
				t.Fatal(err)
			}
			drainTo(piece[1])
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at byte %d of %d: got %+v, want %+v", cut, len(stream), got, want)
		}
	}
}

// Drain allocates nothing per frame on a watched connection: the buffer,
// the Msg and the read callback are the connection's own (AllocsPerRun
// counts the loop goroutine's mallocs too).
func TestTCPDrainZeroAlloc(t *testing.T) {
	srv := listenTCP(t)
	done := make(chan struct{}, 1)
	handled := 0
	watchTCP(t, srv, func(m *wire.Msg) {
		if handled++; m.Type == wire.TClose {
			done <- struct{}{}
		}
	})
	cl, err := DialTCP(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	zeroAllocRounds(t, cl.Write, func() { <-done }, &handled)
}

// A drain that hands over its budget reports more, one that hands over
// less does not, and the next call continues where the last stopped; a
// bad prefix ends the stream, and Drain names it. The frames outgrow the
// connection's buffer, so the reader moves partial frames to its front.
func TestTCPDrainStopsAtItsBudget(t *testing.T) {
	srv := listenTCP(t)
	c, peer := acceptOne(t, srv)
	const n, budget, pad = 10, 4, 30_000
	var pkts [][]byte
	var want []uint64
	for i := 1; i <= n; i++ {
		pkts = append(pkts, wire.AppendProbe(nil, wire.Probe{MP: 1, Seq: uint64(i), Pad: bytes.Repeat([]byte{byte(i)}, pad)}))
		want = append(want, uint64(i))
	}
	stream, _ := frames(pkts)
	written := make(chan error, 1)
	go func() { _, err := peer.Write(append(stream, 0xff, 0xff, 0xff, 0xff)); written <- err }()
	var got []uint64
	h := func(m *wire.Msg) {
		if p := m.Probe.Pad; len(p) == pad && p[0] == byte(m.Probe.Seq) && p[pad-1] == p[0] {
			got = append(got, m.Probe.Seq)
		}
	}
	stopped := false
	for deadline := time.Now().Add(5 * time.Second); ; {
		before := len(got)
		more, err := c.Drain(h, budget)
		if err != nil {
			if !strings.Contains(err.Error(), "frame length") || more {
				t.Fatalf("the bad prefix ended the stream with %v (more %v)", err, more)
			}
			break
		}
		if k := len(got) - before; more != (k == budget) || time.Now().After(deadline) {
			t.Fatalf("a drain that handed over %d of a budget of %d reports more = %v", k, budget, more)
		}
		stopped = stopped || more
	}
	if err := <-written; err != nil {
		t.Fatal(err)
	}
	if clean, errored := srv.ConnStats(); !slices.Equal(got, want) || !stopped || clean != 0 || errored != 1 {
		t.Fatalf("drained %v, stopped at the budget: %v, conn stats (%d, %d); want %v, true, (0, 1)", got, stopped, clean, errored, want)
	}
}
