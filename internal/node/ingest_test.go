package node

import (
	"bytes"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbo/internal/market"
	"dbo/internal/sim"
	"dbo/internal/wire"
)

// rawSocket is a loopback UDP socket outside internal/transport: the
// tests' stand-in for a participant (or an exchange), speaking the wire
// protocol with reused buffers so its own cost is not in the ledger.
type rawSocket struct {
	conn *net.UDPConn
	buf  []byte
}

func newRawSocket(t testing.TB) *rawSocket {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadBuffer(4 << 20); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawSocket{conn: conn, buf: make([]byte, 0, wire.MaxSize)}
}

func (s *rawSocket) addr() string { return s.conn.LocalAddr().String() }

func (s *rawSocket) write(t testing.TB, b []byte, to netip.AddrPort) {
	if _, err := s.conn.WriteToUDPAddrPort(b, to); err != nil {
		t.Fatal(err)
	}
}

// heartbeats sends one heartbeat for each of participants 1..mps at the
// delivery clock order() gives elapsed: the round that releases every
// trade submitted before it.
func (s *rawSocket) heartbeats(t testing.TB, to netip.AddrPort, mps int, elapsed sim.Time) {
	for mp := 1; mp <= mps; mp++ {
		hb := market.Heartbeat{MP: market.ParticipantID(mp), DC: market.DeliveryClock{Point: 1, Elapsed: 1000 * elapsed}}
		s.buf = wire.AppendHeartbeat(s.buf[:0], hb)
		s.write(t, s.buf, to)
	}
}

// next reads datagrams until one of type tag arrives and returns a copy
// of it, or nil if none does within the wait.
func (s *rawSocket) next(t testing.TB, tag byte, wait time.Duration) []byte {
	t.Helper()
	buf := make([]byte, 2048)
	if err := s.conn.SetReadDeadline(time.Now().Add(wait)); err != nil {
		t.Fatal(err)
	}
	for {
		n, _, err := s.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return nil
		}
		if n > 0 && buf[0] == tag {
			return bytes.Clone(buf[:n])
		}
	}
}

// startIngestCES starts a CES whose participants 1..n all live at the
// addresses given (one per participant), ticking slowly enough that
// market data is a per-tick remainder, not the load.
func startIngestCES(t testing.TB, addrs []string, onForward func(*market.Trade)) *CES {
	t.Helper()
	ces, err := NewCES(CESConfig{
		Listen: "127.0.0.1:0", TickInterval: 5 * time.Millisecond, Ticks: 1 << 30,
		Delta: time.Millisecond, Tau: time.Millisecond, OnForward: onForward,
	})
	if err != nil {
		t.Fatal(err)
	}
	mps := make([]MPAddr, len(addrs))
	for i, a := range addrs {
		mps[i] = MPAddr{ID: market.ParticipantID(i + 1), Addr: a}
	}
	if err := ces.Start(mps); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ces.Stop)
	return ces
}

// startIdleMP starts an MP that never trades, with the raw socket as its
// exchange, and counts the batches delivered to it.
func startIdleMP(t testing.TB, id market.ParticipantID, ces *rawSocket) (*MP, *atomic.Int64) {
	t.Helper()
	delivered := new(atomic.Int64)
	mp, err := StartMP(MPConfig{
		ID: id, Listen: "127.0.0.1:0", CES: ces.addr(),
		Delta: time.Microsecond, Tau: time.Hour,
		Strategy:  func(market.DataPoint) (bool, time.Duration, market.Side, int64, int64) { return false, 0, 0, 0, 0 },
		OnDeliver: func(*market.Batch) { delivered.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mp.Stop)
	return mp, delivered
}

// order is the i-th trade of a synthetic flow in which consecutive
// trades cross: a buy rests, the next sell takes it.
func order(mp market.ParticipantID, seq market.TradeSeq, elapsed sim.Time) market.Trade {
	side := market.Buy
	if seq%2 == 0 {
		side = market.Sell
	}
	return market.Trade{
		MP: mp, Seq: seq, Symbol: 1, Side: side, Price: 100, Qty: 1, Trigger: 1,
		DC: market.DeliveryClock{Point: 1, Elapsed: 1000 * elapsed},
	}
}

// ingestFleet is mps participants behind one raw socket — a gateway, or
// dbo-load's synthetic fleet — driving crossing trades into a started
// CES in bursts, each released by a heartbeat round and waited for, so
// nothing piles up in a socket buffer. A reader drains what comes back.
// Trades come from ids 1..senders in rotation: with senders below mps
// the silent ids' watermarks hold every trade of a burst until the
// heartbeat round, which then releases the burst in one loop turn.
// first is the first trade OnForward handed out.
type ingestFleet struct {
	sock      *rawSocket
	ces       *CES
	mps       int
	senders   int
	forwarded atomic.Int64
	first     atomic.Pointer[market.Trade]
	seq       market.TradeSeq
	sent      int64
	elapsed   sim.Time
}

func startIngestFleet(t *testing.T, mps int) *ingestFleet { return startIngestFleetRead(t, mps, nil) }

// startIngestFleetRead is startIngestFleet whose reader also hands each
// datagram to read (on the reader's goroutine; the bytes are the
// reader's).
func startIngestFleetRead(t *testing.T, mps int, read func([]byte)) *ingestFleet {
	t.Helper()
	f := &ingestFleet{sock: newRawSocket(t), mps: mps, senders: mps}
	var drained sync.WaitGroup
	drained.Add(1)
	go func() {
		defer drained.Done()
		buf := make([]byte, 2048)
		for {
			n, _, err := f.sock.conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			if read != nil {
				read(buf[:n])
			}
		}
	}()
	t.Cleanup(func() { f.sock.conn.Close(); drained.Wait() })
	addrs := make([]string, mps)
	for i := range addrs {
		addrs[i] = f.sock.addr()
	}
	f.ces = startIngestCES(t, addrs, func(tr *market.Trade) {
		f.first.CompareAndSwap(nil, tr)
		f.forwarded.Add(1)
	})
	return f
}

// run sends n bursts of burst trades and returns once all are forwarded.
func (f *ingestFleet) run(t *testing.T, n, burst int) {
	t.Helper()
	to := f.ces.Addr().AddrPort()
	for b := 0; b < n; b++ {
		for i := 0; i < burst; i++ {
			f.seq++
			f.elapsed++
			tr := order(market.ParticipantID(i%f.senders+1), f.seq, f.elapsed)
			f.sock.buf = wire.AppendTrade(f.sock.buf[:0], &tr)
			f.sock.write(t, f.sock.buf, to)
			f.sent++
		}
		f.elapsed++
		f.sock.heartbeats(t, to, f.mps, f.elapsed)
		for deadline := time.Now().Add(5 * time.Second); f.forwarded.Load() < f.sent; {
			if time.Now().After(deadline) {
				t.Fatalf("forwarded %d of %d trades", f.forwarded.Load(), f.sent)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// TestLiveIngestAllocBudget holds the live ingest path — the loop's
// socket read, decode, ordering buffer, matching engine,
// execution reports out — to a twentieth of a heap object per forwarded
// trade, on a real CES fed by a raw socket. What is left under the
// budget is the trade arena's chunk, one per 512 trades, and the
// amortized growth of the slices that grow with the run (the forwarded
// log, the generation log); the transport, the loop, the matching engine
// and the exec egress contribute nothing per message.
func TestLiveIngestAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("live ingest needs real sockets and real time")
	}
	const mps, burst, bursts = 4, 64, 150
	f := startIngestFleet(t, mps)
	f.run(t, 20, burst) // warm-up: slices, maps and the book reach their working size

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f.run(t, bursts, burst)
	runtime.ReadMemStats(&after)

	const budget = 0.05
	trades := float64(burst * bursts)
	perTrade := float64(after.Mallocs-before.Mallocs) / trades
	t.Logf("%.4f objects per forwarded trade over %.0f trades, %.2f fills per trade, %d datagrams dropped at the socket",
		perTrade, trades, float64(f.ces.Executions())/float64(f.sent), f.ces.Metrics().Snapshot()["udp_rx_dropped"])
	if perTrade > budget {
		t.Fatalf(`%.4f heap objects per forwarded trade, budget %.2f. Per-message sites that must stay at zero — profile with
  go test ./internal/node -run TestLiveIngestAllocBudget -memprofile mem.prof -memprofilerate 1
  go tool pprof -sample_index=alloc_objects -top mem.prof
and look for:
  net.(*UDPConn).ReadFromUDP              a *UDPAddr and its IP per datagram (the loop's Drain reads with read(2))
  wire.Decode / (*Msg).Value              the message boxed into any (the live path uses DecodeInto and m.Type)
  rt.(*Loop).Post / Watch                 a closure or a method value per message (the drains are bound once)
  node.(*CES).onForward / report          an exec boxed or encoded per counterparty (encoded once into c.buf)
  metrics.(*Registry).Counter             not an object, but a mutex and a map lookup per message
  node.(*CES).tick                        a closure per re-arm (the tick is Loop.Schedule with the index as arg)
  lob.(*Book).SubmitTIF                   a resting order or a fills slice per submit (slab and borrowed scratch)
  node.(*CES).onMessage                   a trade per message (it comes from c.trades, the arena)
Expected to remain: market.(*TradeArena).New (its 512-trade chunk, 1/512 ≈ 0.002).`,
			perTrade, budget)
	}
}

// TestForwardedTradeOutlivesItsChunk holds the CES to the contract on
// CESConfig.OnForward and Forwarded: a forwarded trade is the CES's,
// valid and unchanged for its life. A pointer kept from the first
// OnForward still reads the first trade sent after more than two arena
// chunks of later trades and a collection, and it is Forwarded()[0].
func TestForwardedTradeOutlivesItsChunk(t *testing.T) {
	if testing.Short() {
		t.Skip("live ingest needs real sockets and real time")
	}
	const burst = 64
	f := startIngestFleet(t, 4)
	f.run(t, 1, burst)
	kept := f.first.Load()
	if kept == nil || kept.MP != 1 || kept.Seq != 1 {
		t.Fatalf("first forwarded trade %+v, want MP 1 Seq 1", kept)
	}
	f.run(t, 5*512/burst, burst) // five arena chunks more
	runtime.GC()
	if kept.MP != 1 || kept.Seq != 1 {
		t.Errorf("kept trade reads MP %d Seq %d after %d later trades, want MP 1 Seq 1", kept.MP, kept.Seq, f.sent-burst)
	}
	fwd := f.ces.Forwarded()
	if int64(len(fwd)) != f.sent || fwd[0] != kept {
		t.Errorf("Forwarded() holds %d trades (sent %d), first %p; OnForward's first was %p", len(fwd), f.sent, fwd[0], kept)
	}
}

// TestIngestDatagramBudget counts what the exchange writes for a fleet
// that is one endpoint: beside the market data (one copy per participant
// per tick) it is exactly one datagram per fill, whichever two of the
// fleet's ids were its sides.
func TestIngestDatagramBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("live ingest needs real sockets and real time")
	}
	const mps, burst, bursts = 4, 64, 40
	f := startIngestFleet(t, mps)
	f.run(t, bursts, burst)

	// Read on the loop, between two of its events, so the three counts
	// are of the same instant while the tick keeps running.
	type counts struct{ written, points, fills, reports int64 }
	ch := make(chan counts, 1)
	f.ces.loop.Post(func() {
		written, _, _ := f.ces.ep.Stats()
		ch <- counts{
			written: written, points: f.ces.m.dataPoints.Value(),
			fills: f.ces.m.executions.Value(), reports: f.ces.m.execReportsSent.Value(),
		}
	})
	c := <-ch
	if c.fills < int64(burst*bursts)/4 {
		t.Fatalf("%d fills from %d crossing trades: the workload did not cross", c.fills, burst*bursts)
	}
	if got := c.written - c.points*mps; got != c.fills {
		t.Errorf("%d datagrams beside market data for %d fills, want one each", got, c.fills)
	}
	if c.reports != c.fills {
		t.Errorf("exec_reports_sent = %d for %d fills", c.reports, c.fills)
	}
}

// A fill is encoded once and the same bytes go to both counterparties;
// a self-cross is reported once.
func TestExecEncodedOnceReachesBothOwners(t *testing.T) {
	if testing.Short() {
		t.Skip("live ingest needs real sockets and real time")
	}
	a, b := newRawSocket(t), newRawSocket(t)
	ces := startIngestCES(t, []string{a.addr(), b.addr()}, nil)
	to := ces.Addr().AddrPort()
	elapsed := sim.Time(0)
	submit := func(s *rawSocket, mp market.ParticipantID, seq market.TradeSeq) {
		elapsed++
		tr := order(mp, seq, elapsed)
		s.write(t, wire.AppendTrade(nil, &tr), to)
	}
	release := func() {
		elapsed++
		for mp, s := range map[market.ParticipantID]*rawSocket{1: a, 2: b} {
			hb := market.Heartbeat{MP: mp, DC: market.DeliveryClock{Point: 1, Elapsed: 1000 * elapsed}}
			s.write(t, wire.AppendHeartbeat(nil, hb), to)
		}
	}

	submit(a, 1, 1) // MP 1 buys and rests
	submit(b, 2, 2) // MP 2 sells into it
	release()
	atA, atB := a.next(t, wire.TExec, 5*time.Second), b.next(t, wire.TExec, 5*time.Second)
	if atA == nil || atB == nil {
		t.Fatalf("execution report reached maker: %v, taker: %v", atA != nil, atB != nil)
	}
	if !bytes.Equal(atA, atB) {
		t.Fatalf("the two counterparties got different reports:\n%x\n%x", atA, atB)
	}
	var m wire.Msg
	if err := wire.DecodeInto(&m, atA); err != nil {
		t.Fatal(err)
	}
	if m.Exec.MakerOwner != 1 || m.Exec.TakerOwner != 2 || m.Exec.Price != 100 || m.Exec.Qty != 1 {
		t.Fatalf("report = %+v", m.Exec)
	}

	submit(a, 1, 3) // MP 1 buys, then sells into its own order
	submit(a, 1, 4)
	release()
	if a.next(t, wire.TExec, 5*time.Second) == nil {
		t.Fatal("the self-cross was not reported to its owner")
	}
	if extra := a.next(t, wire.TExec, 50*time.Millisecond); extra != nil {
		t.Fatal("the self-cross was reported to its owner twice")
	}
	if stray := b.next(t, wire.TExec, 50*time.Millisecond); stray != nil {
		t.Fatal("MP 2 got a report of a fill it had no side of")
	}
}

// Execution reports go out by endpoint, not by owner: two ids behind one
// socket share one datagram per fill (it names both), an id on its own
// socket still gets its own copy, and an owner the CES does not know
// takes nothing away from the one it does.
func TestExecOncePerEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("live ingest needs real sockets and real time")
	}
	gw, solo := newRawSocket(t), newRawSocket(t) // ids 1 and 2 behind gw, id 3 on solo
	ces := startIngestCES(t, []string{gw.addr(), gw.addr(), solo.addr()}, nil)
	to := ces.Addr().AddrPort()
	elapsed := sim.Time(0)
	var seq market.TradeSeq
	// cross rests a buy of maker's and sells taker's into it, releases
	// both, and checks each socket got exactly the reports wanted of it
	// (one or none), naming both owners, the same bytes at both.
	cross := func(maker, taker market.ParticipantID, wantGW, wantSolo bool) {
		t.Helper()
		for _, mp := range []market.ParticipantID{maker, taker} {
			seq++ // odd buys, even sells
			elapsed++
			tr := order(mp, seq, elapsed)
			gw.write(t, wire.AppendTrade(nil, &tr), to)
		}
		elapsed++
		gw.heartbeats(t, to, 3, elapsed)
		// Wanted reports are waited for first: once one is in, the fill
		// has been written everywhere it will be, and a short wait shows
		// a copy that should not exist.
		var got [2][]byte
		for i, s := range []*rawSocket{gw, solo} {
			if (i == 0 && !wantGW) || (i == 1 && !wantSolo) {
				continue
			}
			if got[i] = s.next(t, wire.TExec, 5*time.Second); got[i] == nil {
				t.Fatalf("fill %d×%d: no report on socket %d", maker, taker, i)
			}
			var m wire.Msg
			if err := wire.DecodeInto(&m, got[i]); err != nil {
				t.Fatal(err)
			}
			if m.Exec.MakerOwner != int32(maker) || m.Exec.TakerOwner != int32(taker) {
				t.Fatalf("fill %d×%d reported as %+v", maker, taker, m.Exec)
			}
		}
		for i, s := range []*rawSocket{gw, solo} {
			if s.next(t, wire.TExec, 50*time.Millisecond) != nil {
				t.Fatalf("fill %d×%d: socket %d got a report too many", maker, taker, i)
			}
		}
		if wantGW && wantSolo && !bytes.Equal(got[0], got[1]) {
			t.Fatalf("fill %d×%d: the two endpoints got different reports:\n%x\n%x", maker, taker, got[0], got[1])
		}
	}
	cross(1, 2, true, false) // both sides behind the one socket: one datagram
	cross(1, 3, true, true)  // two endpoints: one copy each
	cross(9, 3, false, true) // an unknown maker does not cost the taker its report
	cross(2, 9, true, false) // nor an unknown taker the maker its
	if got := ces.Metrics().Counter("exec_reports_sent").Value(); got != 5 {
		t.Fatalf("exec_reports_sent = %d, want 5 (1 + 2 + 1 + 1)", got)
	}
}

// A maximally padded probe followed at once by a small datagram: the
// MP's loop decodes the second into the Msg the first was handed over in,
// over the pad's storage. Every probe is reflected with its own sequence
// number and every point between them is delivered.
func TestPaddedProbeThenDatagramNoAlias(t *testing.T) {
	const rounds = 12
	const pad = 65507 - wire.ProbeHeaderSize // the largest probe one UDP datagram carries

	t.Run("mp", func(t *testing.T) {
		ces := newRawSocket(t) // stands in for the exchange: collects the probe replies
		mp, delivered := startIdleMP(t, 3, ces)
		to := mp.Addr().AddrPort()
		for i := 1; i <= rounds; i++ {
			ces.write(t, wire.AppendProbe(nil, wire.Probe{MP: 3, Seq: uint64(i), T1: 5, Pad: bytes.Repeat([]byte{byte(i)}, pad)}), to)
			ces.write(t, wire.AppendMarketData(nil, market.DataPoint{ID: market.PointID(i), Batch: market.BatchID(i), Last: true}), to)
		}
		for i := 1; i <= rounds; i++ {
			reply := ces.next(t, wire.TProbeReply, 5*time.Second)
			if reply == nil {
				t.Fatalf("probe %d was not reflected", i)
			}
			var m wire.Msg
			if err := wire.DecodeInto(&m, reply); err != nil {
				t.Fatal(err)
			}
			if m.ProbeReply.Seq != uint64(i) || m.ProbeReply.T1 != 5 || m.ProbeReply.MP != 3 {
				t.Fatalf("reply %d = %+v", i, m.ProbeReply)
			}
		}
		for deadline := time.Now().Add(5 * time.Second); delivered.Load() < rounds; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d points delivered between the probes", delivered.Load(), rounds)
			}
		}
	})
}

// A data point whose id is far beyond the stream would have the release
// buffer mark every point of the gap as missing, one map entry each —
// 2^62 of them here. The MP drops it, counts it, and keeps delivering.
func TestHostilePointDoesNotStallMP(t *testing.T) {
	ces := newRawSocket(t)
	mp, delivered := startIdleMP(t, 1, ces)
	to := mp.Addr().AddrPort()
	point := func(id market.PointID) []byte {
		return wire.AppendMarketData(nil, market.DataPoint{ID: id, Batch: market.BatchID(id), Last: true})
	}
	ces.write(t, point(1), to)
	ces.write(t, point(1<<62), to)
	ces.write(t, point(2), to)
	for deadline := time.Now().Add(5 * time.Second); delivered.Load() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 2 well-formed points delivered around the hostile one", delivered.Load())
		}
	}
	if mp.Fills() < 0 {
		t.Fatal("the MP's loop does not answer")
	}
	if got := mp.Metrics().Counter("data_rejected").Value(); got != 1 {
		t.Fatalf("data_rejected = %d, want 1", got)
	}
	// A gap inside the bound is still a gap: repaired, not rejected.
	ces.write(t, point(2+maxPointGap), to)
	if req := ces.next(t, wire.TRetx, 5*time.Second); req == nil {
		t.Fatal("a gap inside the bound did not produce a retransmission request")
	}
}
