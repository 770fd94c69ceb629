package transport

import (
	"net"
	"net/netip"
	"os"
	"reflect"
	"testing"
	"time"

	"dbo/internal/market"
	"dbo/internal/wire"
)

// everyType is one value of each of the protocol's eight messages, as
// Decode boxes them.
func everyType() []any {
	return []any{
		market.DataPoint{ID: 7, Batch: 3, Last: true, BidSide: true, Gen: 11, Symbol: 2, Price: 100, Qty: 5,
			Ctx: market.TraceCtx{Origin: market.NodeCES, Hop: 1}},
		&market.Trade{MP: 2, Seq: 9, Symbol: 1, Side: market.Sell, Price: 101, Qty: 3, Trigger: 7,
			Submitted: 40, RT: 12, DC: market.DeliveryClock{Point: 7, Elapsed: 12}},
		market.Heartbeat{MP: 2, DC: market.DeliveryClock{Point: 7, Elapsed: 30}, Sent: 99},
		wire.Retx{MP: 2, From: 3, To: 6},
		wire.Close{Batch: 3, Final: 7, Count: 4},
		wire.Exec{Maker: 1, Taker: 2, MakerOwner: 1, TakerOwner: 2, Price: 101, Qty: 3, Seq: 5},
		wire.Probe{MP: 2, Seq: 8, T1: 77, Pad: []byte{1, 2, 3, 4, 5}},
		wire.ProbeReply{MP: 2, Seq: 8, T1: 77, T2: 80, T3: 81},
	}
}

func encodeAll(t *testing.T, vals []any) [][]byte {
	t.Helper()
	var out [][]byte
	for _, v := range vals {
		b, err := wire.Append(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// arrival is what a handler saw: the typed one copies the message out
// of the reader's Msg (Value), as the ownership rule requires.
type arrival struct {
	typ  byte
	v    any
	from netip.AddrPort
}

func collect(t *testing.T, ch <-chan arrival, n int) []arrival {
	t.Helper()
	var out []arrival
	for len(out) < n {
		select {
		case a := <-ch:
			out = append(out, a)
		case <-time.After(2 * time.Second):
			t.Fatalf("%d of %d messages arrived", len(out), n)
		}
	}
	return out
}

// checkSame requires the typed and the boxed handler to have seen the
// same eight messages, in order, equal to what was encoded, from the
// same peer.
func checkSame(t *testing.T, want []any, typed, boxed []arrival) {
	t.Helper()
	for i, w := range want {
		if !reflect.DeepEqual(typed[i].v, w) {
			t.Errorf("ServeMsg message %d = %+v, want %+v", i, typed[i].v, w)
		}
		if !reflect.DeepEqual(boxed[i].v, w) {
			t.Errorf("Serve message %d = %+v, want %+v", i, boxed[i].v, w)
		}
		if typed[i].typ != byte(i+1) {
			t.Errorf("ServeMsg message %d has type tag %d, want %d", i, typed[i].typ, i+1)
		}
	}
}

func TestServeAdapterDeliversWhatServeMsgDoes(t *testing.T) {
	want := everyType()
	pkts := encodeAll(t, want)
	typedCh, boxedCh := make(chan arrival, len(want)), make(chan arrival, len(want))
	onMsg := func(m *wire.Msg, from netip.AddrPort) { typedCh <- arrival{m.Type, m.Value(), from} }
	onBoxed := func(v any, from *net.UDPAddr) { boxedCh <- arrival{0, v, from.AddrPort()} }

	t.Run("udp", func(t *testing.T) {
		a, b := pair(t)
		c, err := Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		go b.ServeMsg(onMsg)
		go c.Serve(onBoxed)
		for _, p := range pkts {
			for _, dst := range []*Endpoint{b, c} {
				if err := a.Write(p, dst.LocalAddr().AddrPort()); err != nil {
					t.Fatal(err)
				}
			}
		}
		typed, boxed := collect(t, typedCh, len(want)), collect(t, boxedCh, len(want))
		checkSame(t, want, typed, boxed)
		for i := range want {
			if src := a.LocalAddr().AddrPort(); typed[i].from != src || boxed[i].from != src {
				t.Errorf("message %d from %v (ServeMsg) and %v (Serve), want %v", i, typed[i].from, boxed[i].from, src)
			}
		}
	})

	t.Run("tcp", func(t *testing.T) {
		var clients []*TCPClient
		for _, serve := range []func(*TCPServer){
			func(s *TCPServer) { s.ServeMsg(onMsg) },
			func(s *TCPServer) { s.Serve(onBoxed) },
		} {
			srv, err := ListenTCP("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			go serve(srv)
			cl, err := DialTCP(srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			clients = append(clients, cl)
		}
		for _, p := range pkts {
			for _, cl := range clients {
				if err := cl.Write(p); err != nil {
					t.Fatal(err)
				}
			}
		}
		typed, boxed := collect(t, typedCh, len(want)), collect(t, boxedCh, len(want))
		checkSame(t, want, typed, boxed)
		for i := range want {
			if !typed[i].from.IsValid() || !boxed[i].from.IsValid() {
				t.Errorf("message %d carries no peer address", i)
			}
		}
	})
}

// msgRound is how many messages one measured round carries, alternating
// trade and heartbeat; a close marker ends the round.
const msgRound = 64

// roundHandler counts what it is handed and signals on a close marker.
func roundHandler(done chan<- struct{}) func(*wire.Msg, netip.AddrPort) {
	var sum int64
	return func(m *wire.Msg, _ netip.AddrPort) {
		sum += int64(m.Trade.Seq) + int64(m.Heartbeat.Sent)
		if m.Type == wire.TClose {
			done <- struct{}{}
		}
	}
}

func roundPackets() (pkts [2][]byte, end []byte) {
	return [2][]byte{
		wire.AppendTrade(nil, &market.Trade{MP: 1, Seq: 1, Price: 100, Qty: 1}),
		wire.AppendHeartbeat(nil, market.Heartbeat{MP: 1, Sent: 1}),
	}, wire.AppendClose(nil, wire.Close{Batch: 1})
}

// udpRound returns a function that writes a round to a ServeMsg
// endpoint (or a boxed Serve one) and waits for its end. The bare
// receive keeps the round itself allocation-free; loopback with a 4 MiB
// socket buffer does not lose a 65-datagram round.
func udpRound(t testing.TB, boxed bool) func() {
	a, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	done := make(chan struct{}, 1)
	if boxed {
		go b.Serve(func(v any, _ *net.UDPAddr) {
			if _, ok := v.(wire.Close); ok {
				done <- struct{}{}
			}
		})
	} else {
		go b.ServeMsg(roundHandler(done))
	}
	pkts, end := roundPackets()
	to := b.LocalAddr().AddrPort()
	return func() {
		for i := 0; i < msgRound; i++ {
			if err := a.Write(pkts[i%2], to); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Write(end, to); err != nil {
			t.Fatal(err)
		}
		<-done
	}
}

func tcpRound(t testing.TB) func() {
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{}, 1)
	go srv.ServeMsg(roundHandler(done))
	cl, err := DialTCP(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close(); srv.Close() })
	pkts, end := roundPackets()
	return func() {
		for i := 0; i < msgRound; i++ {
			if err := cl.Write(pkts[i%2]); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.Write(end); err != nil {
			t.Fatal(err)
		}
		<-done
	}
}

// Write, the read, DecodeInto and the dispatch allocate nothing per
// message, over UDP and over frames (AllocsPerRun counts the reader
// goroutine's mallocs too).
func TestServeMsgZeroAlloc(t *testing.T) {
	for name, round := range map[string]func(){"udp": udpRound(t, false), "tcp": tcpRound(t)} {
		round()
		if a := testing.AllocsPerRun(20, round); a != 0 {
			t.Errorf("%s: %.2f allocations per round of %d messages, want 0", name, a, msgRound)
		}
	}
}

func benchRound(b *testing.B, round func()) {
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += msgRound {
		round()
	}
}

// One datagram written and served, typed against boxed.
func BenchmarkServeMsg(b *testing.B)    { benchRound(b, udpRound(b, false)) }
func BenchmarkServeBoxed(b *testing.B)  { benchRound(b, udpRound(b, true)) }
func BenchmarkServeMsgTCP(b *testing.B) { benchRound(b, tcpRound(b)) }

func TestUDPDropsReadsThePortsRows(t *testing.T) {
	const table = `   sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode ref pointer drops
  412: 0100007F:1F90 00000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 31337 2 0000000000000000 17
  413: 0100007F:1F91 00000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 31338 2 0000000000000000 5
  414: 00000000:1F90 00000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 31339 2 0000000000000000 3
  garbage
`
	for port, want := range map[int]int64{0x1F90: 20, 0x1F91: 5, 9: 0} {
		if got := udpDrops(table, port); got != want {
			t.Errorf("udpDrops(port %#x) = %d, want %d", port, got, want)
		}
	}
}

// Listen asks for a large receive buffer and the endpoint reports what
// the kernel granted; a socket nobody reads overflows it and the drops
// show up in Dropped.
func TestSocketBufferIsSetAndDropsAreCounted(t *testing.T) {
	a, b := pair(t)
	got := b.RcvBuf()
	if got <= 0 {
		t.Skip("effective receive buffer not readable on this platform")
	}
	def, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer def.Close()
	if plain := (&Endpoint{conn: def}).RcvBuf(); got < plain {
		t.Errorf("receive buffer %d bytes, below an untouched socket's %d", got, plain)
	}
	t.Logf("SO_RCVBUF: asked %d, granted %d", rcvBuf, got)

	if _, err := os.ReadFile("/proc/net/udp"); err != nil {
		t.Skip("no /proc/net/udp: drops cannot be read here")
	}
	if d := b.Dropped(); d != 0 {
		t.Fatalf("a fresh socket reports %d drops", d)
	}
	junk := make([]byte, 8192)
	for sent := int64(0); sent < 2*got; sent += int64(len(junk)) {
		if err := a.Write(junk, b.LocalAddr().AddrPort()); err != nil {
			t.Fatal(err)
		}
	}
	if d := b.Dropped(); d == 0 {
		t.Error("wrote twice the receive buffer to a socket nobody reads and Dropped is still 0")
	}
}
