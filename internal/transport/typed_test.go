package transport

import (
	"net"
	"os"
	"testing"

	"dbo/internal/market"
	"dbo/internal/wire"
)

// everyType is one value of each of the protocol's eight messages, as
// Decode boxes them and wire.Msg.Value copies them out.
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

// msgRound is how many messages one measured round carries, alternating
// trade and heartbeat; a close marker ends the round (roundPackets).
const msgRound = 64

func roundPackets() (pkts [2][]byte, end []byte) {
	return [2][]byte{
		wire.AppendTrade(nil, &market.Trade{MP: 1, Seq: 1, Price: 100, Qty: 1}),
		wire.AppendHeartbeat(nil, market.Heartbeat{MP: 1, Sent: 1}),
	}, wire.AppendClose(nil, wire.Close{Batch: 1})
}

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
