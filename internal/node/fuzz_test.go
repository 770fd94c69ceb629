package node

import (
	"testing"
	"time"

	"dbo/internal/market"
	"dbo/internal/sim"
	"dbo/internal/wire"
)

// FuzzCESDatagram feeds arbitrary bytes down the receive paths of a
// started CES and a started MP and requires that neither loop panics or
// stalls and that the CES still forwards a well-formed trade behind a
// well-formed heartbeat afterwards. Each input is written as a datagram
// to both nodes' sockets, undecodable bytes included: through the
// kernel to the loop's own read, DecodeInto and onMessage. An input that
// decodes also takes the CES's TCP path: it is written as a frame on a
// connection dialled to the CES's listener, in two writes cut at a byte
// the fuzzer chooses, and read by the loop's frame reader. The nodes
// live for the whole run, so state left by one input (queued trades,
// raised watermarks, open gaps, a partial frame) is what the next input
// meets.
func FuzzCESDatagram(f *testing.F) {
	trade := market.Trade{MP: 1, Seq: 1, Symbol: 1, Side: market.Buy, Price: 100, Qty: 1, Trigger: 1,
		DC: market.DeliveryClock{Point: 1, Elapsed: 5}}
	whole := [][]byte{
		wire.AppendMarketData(nil, market.DataPoint{ID: 1, Batch: 1, Last: true, Price: 100, Qty: 1}),
		wire.AppendTrade(nil, &trade),
		wire.AppendHeartbeat(nil, market.Heartbeat{MP: 1, DC: market.DeliveryClock{Point: 1, Elapsed: 9}}),
		wire.AppendRetx(nil, wire.Retx{MP: 1, From: 1, To: 1}),
		wire.AppendClose(nil, wire.Close{Batch: 1, Final: 1, Count: 1}),
		wire.AppendExec(nil, wire.Exec{Maker: 1, Taker: 2, MakerOwner: 1, TakerOwner: 1, Price: 100, Qty: 1, Seq: 1}),
		wire.AppendProbe(nil, wire.Probe{MP: 1, Seq: 1, T1: 3, Pad: []byte{1, 2, 3}}),
		wire.AppendProbeReply(nil, wire.ProbeReply{MP: 1, Seq: 1, T1: 3, T2: 4, T3: 5}),
	}
	// Each whole message is also cut inside the frame's length prefix,
	// at its end, and before the frame's last byte.
	for _, b := range whole {
		for _, cut := range []int{0, 3, 4, len(b) + 3} {
			f.Add(b, uint16(cut))
		}
		f.Add(b[:len(b)-1], uint16(0)) // truncated
	}
	// The two retransmission requests that crashed an unvalidating CES:
	// index −1, and a 2^62-point range as a slice capacity.
	f.Add(wire.AppendRetx(nil, wire.Retx{MP: 1, From: 0, To: 3}), uint16(0))
	f.Add(wire.AppendRetx(nil, wire.Retx{MP: 1, From: 1, To: 1 << 62}), uint16(0))
	// The data point that stalled an unvalidating MP: a 2^62-point gap.
	f.Add(wire.AppendMarketData(nil, market.DataPoint{ID: 1 << 62, Batch: 2}), uint16(0))
	f.Add([]byte{0xEE, 1, 2, 3}, uint16(0)) // unknown tag
	f.Add([]byte{}, uint16(0))

	sink := newRawSocket(f) // writes the inputs; both nodes' output goes here, never read
	forwarded := make(chan market.TradeSeq, 1)
	const probeSeq = 1 << 40 // the well-formed trades' sequence numbers start here
	ces := startIngestCES(f, []string{sink.addr()}, func(t *market.Trade) {
		if t.MP == 1 && t.Seq >= probeSeq {
			select {
			case forwarded <- t.Seq:
			default:
			}
		}
	})
	mp, err := StartMP(MPConfig{
		ID: 1, Listen: "127.0.0.1:0", CES: sink.addr(),
		Delta: time.Microsecond, Tau: time.Hour,
		Strategy: func(market.DataPoint) (bool, time.Duration, market.Side, int64, int64) {
			return true, 0, market.Buy, 100, 1
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(mp.Stop)
	toCES, toMP, conn := ces.Addr().AddrPort(), mp.Addr().AddrPort(), dialTCP(f, ces)

	seq, elapsed := market.TradeSeq(probeSeq), sim.Time(1)<<40
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		var m wire.Msg
		decoded := wire.DecodeInto(&m, data) == nil
		if decoded && m.Type == wire.TTrade && m.Trade.MP == 1 && m.Trade.Seq >= probeSeq {
			return // would be mistaken for the well-formed trade below
		}
		if len(data) <= 65507 { // the largest UDP payload
			sink.write(t, data, toCES)
			sink.write(t, data, toMP)
		}
		if decoded && len(data) <= 1<<16 { // the largest frame; a larger one ends the connection
			b := frame(data)
			k, framed := int(cut)%(len(b)+1), ces.tcp.Received()+1
			for _, b := range [][]byte{b[:k], b[k:]} {
				if _, err := conn.Write(b); err != nil {
					t.Fatal(err)
				}
			}
			for deadline := time.Now().Add(5 * time.Second); ces.tcp.Received() < framed; time.Sleep(10 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatalf("the frame of %x cut at %d was not read", data, k)
				}
			}
		}
		if ces.Queued() < 0 {
			t.Fatal("the CES loop stalled")
		}
		if mp.Fills() < 0 {
			t.Fatal("the MP loop stalled")
		}

		seq++
		elapsed += 2
		sink.buf = wire.AppendTrade(sink.buf[:0], &market.Trade{
			MP: 1, Seq: seq, Symbol: 1, Side: market.Buy, Price: 100, Qty: 1, Trigger: 1,
			DC: market.DeliveryClock{Point: 1, Elapsed: elapsed},
		})
		sink.write(t, sink.buf, toCES)
		sink.buf = wire.AppendHeartbeat(sink.buf[:0], market.Heartbeat{
			MP: 1, DC: market.DeliveryClock{Point: 1, Elapsed: elapsed + 1},
		})
		sink.write(t, sink.buf, toCES)
		select {
		case got := <-forwarded:
			if got != seq {
				t.Fatalf("forwarded trade %d, want %d", got, seq)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("a well-formed trade and heartbeat after %x were not forwarded", data)
		}
	})
}
