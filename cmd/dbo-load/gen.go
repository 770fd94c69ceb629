package main

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"dbo/internal/market"
	"dbo/internal/sim"
	"dbo/internal/wire"
)

// fleet is the load generator of the live_ingest workloads: a synthetic
// fleet of logical market participants behind one raw UDP socket. It
// speaks the wire protocol with reused wire.Append* buffers and never
// touches internal/transport, so its own cost stays put when transport
// changes. One goroutine reads (market data, execution reports), the
// caller's goroutine sends; both block, neither spins.
type fleet struct {
	conn  *net.UDPConn
	ces   netip.AddrPort
	epoch time.Time // the generator's clock: Submitted and latencies count from here
	mps   int

	// The latest delivered point and when it arrived, published by the
	// reader as one snapshot: a sender that read them separately could
	// tag a trade with the new point and the old arrival time.
	mu      sync.Mutex
	point   market.PointID
	arrival time.Duration
	ready   chan struct{} // closed on the first point

	// Sender-side state (caller's goroutine only).
	flow   orderFlow
	lastDC []market.DeliveryClock // per participant: delivery clocks are clamped monotone
	seq    []market.TradeSeq
	next   int // round-robin participant cursor of the closed loop
	buf    []byte
	sent   int64

	fills fillSet // execution reports received
	wg    sync.WaitGroup
}

// fillSet counts distinct fills by execution sequence number: a fill is
// reported to both counterparties, so reports arrive up to twice.
type fillSet struct {
	mu   sync.Mutex
	bits []uint64
	n    int
}

func (s *fillSet) add(seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for uint64(len(s.bits)) <= seq/64 {
		s.bits = append(s.bits, make([]uint64, len(s.bits)+64)...)
	}
	if m := uint64(1) << (seq % 64); s.bits[seq/64]&m == 0 {
		s.bits[seq/64] |= m
		s.n++
	}
}

func (s *fillSet) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// fleetRcvBuf holds a saturated exchange's execution reports while the
// reader goroutine waits for a CPU (net.core.rmem_max permitting).
const fleetRcvBuf = 4 << 20

func newFleet(mps int, seed uint64) (*fleet, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	if err := conn.SetReadBuffer(fleetRcvBuf); err != nil {
		conn.Close()
		return nil, fmt.Errorf("load generator: %w", err)
	}
	return &fleet{
		conn: conn, mps: mps, ready: make(chan struct{}),
		flow:   orderFlow{rng: seed*2 + 1},
		lastDC: make([]market.DeliveryClock, mps+1),
		seq:    make([]market.TradeSeq, mps+1),
		buf:    make([]byte, 0, wire.MaxSize),
	}, nil
}

func (f *fleet) addr() string { return f.conn.LocalAddr().String() }

// start aims the fleet at the exchange and begins reading.
func (f *fleet) start(ces *net.UDPAddr) {
	f.ces = ces.AddrPort()
	f.epoch = time.Now()
	f.wg.Add(1)
	go f.read()
}

// close stops the reader and waits for it.
func (f *fleet) close() {
	f.conn.Close()
	f.wg.Wait()
}

func (f *fleet) now() time.Duration { return time.Since(f.epoch) }

func (f *fleet) read() {
	defer f.wg.Done()
	buf := make([]byte, 2048)
	var m wire.Msg
	for {
		n, _, err := f.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // closed
		}
		if wire.DecodeInto(&m, buf[:n]) != nil {
			continue
		}
		switch m.Type {
		case wire.TMarketData:
			// Every logical participant gets its own copy of each point
			// on this one socket; the first copy is the delivery.
			f.mu.Lock()
			first := f.point == 0
			if m.Data.ID > f.point {
				f.point, f.arrival = m.Data.ID, f.now()
			}
			f.mu.Unlock()
			if first {
				close(f.ready)
			}
		case wire.TExec:
			f.fills.add(m.Exec.Seq)
		}
	}
}

// snapshot reads the latest point and its arrival time together.
func (f *fleet) snapshot() (market.PointID, time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.point, f.arrival
}

// tag clamps mp's next delivery clock strictly above its last one: a
// participant's clock never runs backwards, whatever the schedule did.
func (f *fleet) tag(mp int, dc market.DeliveryClock) market.DeliveryClock {
	if last := f.lastDC[mp]; !last.Less(dc) {
		dc = market.DeliveryClock{Point: last.Point, Elapsed: last.Elapsed + 1}
	}
	f.lastDC[mp] = dc
	return dc
}

func (f *fleet) write() error {
	_, err := f.conn.WriteToUDPAddrPort(f.buf, f.ces)
	return err
}

// trade sends mp's next order tagged dc. submitted is the instant
// latency counts from; it rides in the trade's Submitted field.
func (f *fleet) trade(mp int, dc market.DeliveryClock, submitted time.Duration) error {
	f.seq[mp]++
	side, price, qty := f.flow.next()
	dc = f.tag(mp, dc)
	t := market.Trade{
		MP: market.ParticipantID(mp), Seq: f.seq[mp], Symbol: 1, Side: side, Price: price, Qty: qty,
		// The synthetic participant's ground truth is its tag: it
		// answered the latest point after exactly the elapsed time.
		Trigger: dc.Point, RT: dc.Elapsed, Submitted: sim.FromDuration(submitted),
		DC: dc, Ctx: market.TraceCtx{Origin: market.NodeOfMP(market.ParticipantID(mp))},
	}
	f.buf = wire.AppendTrade(f.buf[:0], &t)
	f.sent++
	return f.write()
}

// heartbeats sends every participant's watermark: its delivery clock
// now, plus ahead (the final flush reports far ahead to release
// everything still held).
func (f *fleet) heartbeats(ahead time.Duration) error {
	point, arrival := f.snapshot()
	now := f.now()
	for mp := 1; mp <= f.mps; mp++ {
		dc := f.tag(mp, market.DeliveryClock{Point: point, Elapsed: sim.FromDuration(now - arrival + ahead)})
		f.buf = wire.AppendHeartbeat(f.buf[:0], market.Heartbeat{
			MP: market.ParticipantID(mp), DC: dc, Sent: sim.FromDuration(now),
			Ctx: market.TraceCtx{Origin: market.NodeOfMP(market.ParticipantID(mp))},
		})
		if err := f.write(); err != nil {
			return err
		}
	}
	return nil
}

// burstSpread is how far back a burst's delivery clocks reach: the
// burst stands for the trades the fleet made since a little before it.
const burstSpread = time.Millisecond

// burst sends perMP trades per participant and then every heartbeat.
// Each participant's tags rise through the burst, but the participants
// interleave with random offsets, so arrival order is not delivery-clock
// order and the ordering buffer has real sorting to do. The closing
// heartbeats are above every tag, so the burst is released at once.
func (f *fleet) burst(perMP int, due time.Duration) error {
	point, arrival := f.snapshot()
	elapsed := f.now() - arrival
	spread := min(burstSpread, elapsed)
	slot := max(spread/time.Duration(perMP), 1)
	for j := 0; j < perMP; j++ {
		for mp := 1; mp <= f.mps; mp++ {
			e := elapsed - spread + time.Duration(j)*slot + time.Duration(f.flow.rand()%uint64(slot))
			if err := f.trade(mp, market.DeliveryClock{Point: point, Elapsed: sim.FromDuration(e)}, due); err != nil {
				return err
			}
		}
	}
	return f.heartbeats(0)
}

// one sends the closed loop's next trade, tagged with the clock as it
// reads now, from the next participant in turn.
func (f *fleet) one() error {
	point, arrival := f.snapshot()
	now := f.now()
	f.next = f.next%f.mps + 1
	return f.trade(f.next, market.DeliveryClock{Point: point, Elapsed: sim.FromDuration(now - arrival)}, now)
}
