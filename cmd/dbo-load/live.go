package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dbo/internal/exchange"
	"dbo/internal/flight"
	"dbo/internal/market"
	"dbo/internal/node"
	"dbo/internal/sim"
	"dbo/internal/wire"
)

// Live parameters. Every interval is at least 2 ms: below that this
// class of host runs a timer at its own floor (see env.timer_floor_us)
// and the numbers would describe the host, not the program.
const (
	ingestMPs     = 8
	ingestTick    = 5 * time.Millisecond
	ingestDelta   = 2 * time.Millisecond // δ = τ
	burstInterval = 2 * time.Millisecond
	burstPerMP    = 5 // 8 × 5 trades per 2 ms burst = 20k trades/s
	liveKappa     = 0.25
	// satWindow is the closed loop's trades sent but not yet forwarded. A
	// default-sized UDP socket on Linux holds 256 of these datagrams, but
	// the kernel returns read datagrams' memory to the socket a quarter
	// of the buffer at a time, so only 192 are sure to fit, and the
	// exchange does not enlarge its own buffer. 160 leaves room for the
	// heartbeats; the exchange's socket then never drops a trade.
	satWindow     = 160
	satRefill     = 32 // closed loop: forwards the sender sleeps through once its window is full
	clusterTick   = 2 * time.Millisecond
	clusterDelta  = 4 * time.Millisecond
	clusterTau    = 2 * time.Millisecond
	clusterSlowRT = 2 * time.Millisecond // every point is answered after 0 or this
	clusterProbe  = 10 * time.Millisecond
	maxInFlight   = 96 // open loop's safety valve: with the next burst and its heartbeats, under 192 datagrams
	valveNap      = 200 * time.Microsecond
	valveWaits    = 250 // naps before unforwarded trades are written off as lost
	// liveRamp is the unmeasured run-in of every live segment: twenty
	// ingest ticks, fifty cluster ticks, ten probes. It is part of
	// setup_s, which runs to the window opening, and is as short as that
	// allows so that it hides as little of the set-up proper as it can.
	liveRamp       = 100 * time.Millisecond
	flushTimeout   = 500 * time.Millisecond
	firstTradeWait = 2 * time.Second
)

// The live workloads as the simulator takes them (modelOverhead).
var (
	ingestModel = exchange.Config{
		N: ingestMPs, TickInterval: sim.FromDuration(ingestTick),
		Delta: sim.FromDuration(ingestDelta), Kappa: liveKappa, Tau: sim.FromDuration(ingestDelta),
	}
	clusterModel = exchange.Config{
		N: 2, TickInterval: sim.FromDuration(clusterTick),
		Delta: sim.FromDuration(clusterDelta), Kappa: liveKappa, Tau: sim.FromDuration(clusterTau),
		RTMax: sim.FromDuration(clusterSlowRT), TradeProb: 1, // every point is answered, within the slow response
	}
)

// sink receives the exchange's OnForward calls (CES loop goroutine).
type sink struct {
	mu    sync.Mutex
	lat   []latSample
	fwd   atomic.Int64
	first chan struct{} // closed on the first forward
	// The closed loop's sender sleeps on room when its window is full,
	// having left in wake the forward count at which it wants waking.
	wake atomic.Int64
	room chan struct{}
}

// latSample is one forwarded trade's latency, keyed for the window filter.
type latSample struct {
	key int64 // ingest: Submitted on the generator's clock; cluster: trigger point
	lat time.Duration
}

func (k *sink) record(key int64, lat time.Duration) {
	k.mu.Lock()
	k.lat = append(k.lat, latSample{key, lat})
	k.mu.Unlock()
	n := k.fwd.Add(1)
	if n == 1 {
		close(k.first)
	}
	if n == k.wake.Load() {
		select {
		case k.room <- struct{}{}:
		default:
		}
	}
}

// within returns the latencies whose key lies in [from, to].
func (k *sink) within(from, to int64) []int64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	var out []int64
	for _, s := range k.lat {
		if s.key >= from && s.key <= to {
			out = append(out, int64(s.lat))
		}
	}
	return out
}

func newSink() *sink { return &sink{first: make(chan struct{}), room: make(chan struct{}, 1)} }

// up blocks until the first trade has gone all the way through: that
// is when a live workload's set-up ends.
func (k *sink) up() error {
	select {
	case <-k.first:
		return nil
	case <-time.After(firstTradeWait):
		return fmt.Errorf("first trade not forwarded within %v", firstTradeWait)
	}
}

// nodeCounters reads the exchange's own registry: the counts and waits
// visible at its boundaries.
func nodeCounters(ces *node.CES, tick time.Duration, up time.Duration) map[string]float64 {
	m := ces.Metrics().Snapshot()
	us := func(name string) float64 { return float64(m[name]) / 1e3 }
	return map[string]float64{
		"node.trades_received":       float64(m["trades_received"]),
		"node.heartbeats_received":   float64(m["heartbeats_received"]),
		"node.trades_forwarded":      float64(m["trades_forwarded"]),
		"node.executions":            float64(m["executions"]),
		"core.ob_hold_p50_us":        us("ob_hold_ns_p50"),
		"core.ob_hold_p99_us":        us("ob_hold_ns_p99"),
		"node.hb_staleness_p50_us":   us("hb_staleness_ns_p50"),
		"transport.probe_rtt_p50_us": us("probe_rtt_ns_p50"),
		// Achieved tick rate over configured: node.CES re-arms its tick
		// from the actual fire time, so timer lateness compounds.
		"node.tick_drift_ratio": float64(m["data_points"]-1) * tick.Seconds() / up.Seconds(),
	}
}

// settle scores a live segment after its window: the forwarded log
// replayed through the order checker and a fresh matching engine, and
// the fills reported against the fills made.
func settle(s *segment, ces *node.CES, fills int, horizon sim.Time) {
	fwd := ces.Forwarded()
	c := orderChecker{horizon: horizon}
	for _, t := range fwd {
		c.observe(t)
	}
	t := c.tally
	t.Attempted, t.Lost = s.tally.Attempted, s.tally.Lost
	execs := ces.Executions()
	replayed, crossed := replayBook(fwd)
	if replayed != execs || crossed {
		t.Unreported++
	}
	t.Unreported += int64(max(execs-fills, 0))
	s.tally, s.fairness = t, t.fairness()
	if s.layer == nil {
		s.layer = map[string]float64{}
	}
	s.layer["node.exec_reports_lost_ratio"] = float64(max(execs-fills, 0)) / float64(max(execs, 1))
}

// ingest is a real node.CES fed by the synthetic fleet.
type ingest struct {
	ces     *node.CES
	fleet   *fleet
	sink    *sink
	started time.Time
}

func startIngest(o segOpts) (*ingest, error) {
	if err := o.env.checkIntervals(ingestTick, ingestDelta, burstInterval); err != nil {
		return nil, err
	}
	in := &ingest{sink: newSink()}
	f, err := newFleet(ingestMPs, o.seed)
	if err != nil {
		return nil, err
	}
	in.fleet = f
	cfg := node.CESConfig{
		Listen: "127.0.0.1:0", TickInterval: ingestTick, Ticks: 1 << 30,
		Delta: ingestDelta, Tau: ingestDelta, Kappa: liveKappa, FeedSeed: o.seed,
		OnForward: func(t *market.Trade) {
			in.sink.record(int64(t.Submitted), f.now()-t.Submitted.Duration())
		},
	}
	if o.tr != nil {
		cfg.Flight = flight.NewRecorder(0)
	}
	if in.ces, err = node.NewCES(cfg); err != nil {
		f.close()
		return nil, err
	}
	mps := make([]node.MPAddr, ingestMPs)
	for i := range mps {
		mps[i] = node.MPAddr{ID: market.ParticipantID(i + 1), Addr: f.addr()}
	}
	f.start(in.ces.Addr())
	in.started = time.Now()
	if err := in.ces.Start(mps); err != nil {
		f.close()
		return nil, err
	}
	// Up means the first trade has gone all the way through.
	select {
	case <-f.ready:
	case <-time.After(firstTradeWait):
		in.stop()
		return nil, fmt.Errorf("no market data from the exchange within %v", firstTradeWait)
	}
	if err := f.burst(1, f.now()); err != nil {
		in.stop()
		return nil, err
	}
	if err := in.sink.up(); err != nil {
		in.stop()
		return nil, err
	}
	return in, nil
}

func (in *ingest) stop() {
	in.ces.Stop()
	in.fleet.close()
}

// finish flushes with far-ahead heartbeats until everything sent is
// forwarded, then scores the segment.
func (in *ingest) finish(s *segment, from, to time.Duration, sentInWindow int64) error {
	f := in.fleet
	deadline := time.Now().Add(flushTimeout)
	for in.sink.fwd.Load() < f.sent && time.Now().Before(deadline) {
		if err := f.heartbeats(time.Second); err != nil {
			return err
		}
		time.Sleep(burstInterval)
	}
	time.Sleep(burstInterval) // the last fills' reports are still in flight
	lat := in.sink.within(int64(from), int64(to)-1)
	s.trades = int64(len(lat))
	s.lat = quantilesOf(lat)
	s.tally.Attempted = sentInWindow
	s.tally.Lost = f.sent - in.sink.fwd.Load()
	s.layer = nodeCounters(in.ces, ingestTick, time.Since(in.started))
	settle(s, in.ces, f.fills.count(), 0)
	if s.trades == 0 {
		return fmt.Errorf("no trade was forwarded inside the window")
	}
	return nil
}

// runIngestPaced is the open loop: a burst every burstInterval on a
// fixed schedule, each trade timed from its burst's scheduled instant,
// so a stall is charged to every trade it delays.
func runIngestPaced(o segOpts) (segment, error) {
	var s segment
	t0 := time.Now()
	in, err := startIngest(o)
	if err != nil {
		return s, err
	}
	defer in.stop()
	s.build = time.Since(t0)

	f := in.fleet
	start := f.now()
	from := start + liveRamp
	to := from + o.dur
	var w window
	var late []int64
	var sent0, written int64 // written: trades written off as lost by the safety valve
	for due := start; ; due += burstInterval {
		if due >= from && w.t0.IsZero() {
			s.setup = time.Since(t0)
			o.tr.startProfile()
			w, sent0 = openWindow(), f.sent
		}
		if d := due - f.now(); d > 0 {
			time.Sleep(d)
		}
		if due >= to {
			break
		}
		// Safety valve. A default exchange socket is sure to hold only 192
		// datagrams (see satWindow), so when the host stalls the exchange (or stalls
		// the generator, which then owes a clump of overdue bursts) the
		// next burst waits until the backlog has been forwarded. It is
		// still timed from its scheduled instant, so the stall is charged
		// to every trade it delays instead of being lost from the sample.
		for waits := 0; f.sent-in.sink.fwd.Load()-written > maxInFlight; waits++ {
			if waits == valveWaits {
				written = f.sent - in.sink.fwd.Load() // really lost; stop waiting for them
				break
			}
			time.Sleep(valveNap)
		}
		if due >= from {
			late = append(late, int64(f.now()-due))
		}
		if err := f.burst(burstPerMP, due); err != nil {
			return s, err
		}
	}
	w.close(&s)
	o.tr.stopProfile() // after the window: stopping waits on the profile writer
	sent := f.sent - sent0
	if err := in.finish(&s, from, to, sent); err != nil {
		return s, err
	}
	q := quantilesOf(late)
	s.layer["bench.gen_late_p50_us"], s.layer["bench.gen_late_p99_us"] = q.p50, q.p99
	return s, nil
}

// runIngestSat is the closed loop: the sender keeps satWindow trades in
// flight and sleeps when the window is full; heartbeats keep their own
// 2 ms cadence while trades flow, so a full window still drains.
func runIngestSat(o segOpts) (segment, error) {
	var s segment
	t0 := time.Now()
	in, err := startIngest(o)
	if err != nil {
		return s, err
	}
	defer in.stop()
	s.build = time.Since(t0)

	f, k := in.fleet, in.sink
	from := f.now() + liveRamp
	to := from + o.dur
	hb := time.NewTicker(burstInterval)
	defer hb.Stop()
	var beatAt int64 // trades sent as of the last heartbeat round
	beat := func() error {
		// One round after the last trade releases everything in flight.
		// More would only pile up behind a stalled exchange until its
		// socket overflowed and dropped trades.
		if f.sent == beatAt {
			return nil
		}
		beatAt = f.sent
		return f.heartbeats(0)
	}
	var w window
	var sent0 int64
	for {
		now := f.now()
		if now >= to {
			break
		}
		if now >= from && w.t0.IsZero() {
			s.setup = time.Since(t0)
			o.tr.startProfile()
			w, sent0 = openWindow(), f.sent
			from = f.now() // the window opens when its counters are read
		}
		select {
		case <-hb.C:
			err = beat()
		default:
			if f.sent-k.fwd.Load() < satWindow {
				err = f.one()
				break
			}
			// Window full. Sleep until satRefill trades have been
			// forwarded, not one: a sender woken by every forward spends
			// more on the wake-ups than on sending, and which of the two
			// it does flips with the host's mood.
			k.wake.Store(f.sent - satWindow + satRefill)
			if k.fwd.Load() >= k.wake.Load() {
				break
			}
			select {
			case <-k.room:
			case <-hb.C:
				err = beat()
			}
		}
		if err != nil {
			return s, err
		}
	}
	w.close(&s)
	o.tr.stopProfile() // after the window: stopping waits on the profile writer
	to = f.now()
	return s, in.finish(&s, from, to, f.sent-sent0)
}

// cluster is a real node.CES with two real node.MPs.
type cluster struct {
	ces   *node.CES
	mps   []*node.MP
	sink  *sink
	fills fillSet
	gen   []atomic.Int64 // generation time per point, CES clock, captured in Strategy
	// The measured window in trigger points: MP 1's strategy notes the
	// first and last point it sees while measuring is set.
	measuring atomic.Bool
	p0, p1    atomic.Int64
	quiet     atomic.Bool // stop answering, so the segment can be settled at rest
	started   time.Time
}

func (c *cluster) stop() {
	for _, mp := range c.mps {
		mp.Stop()
	}
	c.ces.Stop()
}

// strategy answers every point: after 0 or clusterSlowRT, alternating
// by (mp+point)%2, so each point is one race with a known rightful
// winner, and the winner buys what the loser sells.
func (c *cluster) strategy(mp market.ParticipantID) node.Strategy {
	return func(dp market.DataPoint) (bool, time.Duration, market.Side, int64, int64) {
		if int(dp.ID) >= len(c.gen) || c.quiet.Load() {
			return false, 0, 0, 0, 0
		}
		c.gen[dp.ID].Store(int64(dp.Gen))
		if mp == 1 && c.measuring.Load() {
			c.p0.CompareAndSwap(0, int64(dp.ID))
			c.p1.Store(int64(dp.ID))
		}
		if (int(mp)+int(dp.ID))%2 == 0 {
			return true, 0, market.Buy, basePrice, 1
		}
		return true, clusterSlowRT, market.Sell, basePrice, 1
	}
}

func startCluster(o segOpts) (*cluster, error) {
	if err := o.env.checkIntervals(clusterTick, clusterDelta, clusterTau, clusterSlowRT); err != nil {
		return nil, err
	}
	ticks := int((o.dur+liveRamp+10*time.Second)/clusterTick) + 1
	c := &cluster{sink: newSink(), gen: make([]atomic.Int64, ticks+1)}
	cfg := node.CESConfig{
		Listen: "127.0.0.1:0", TickInterval: clusterTick, Ticks: ticks,
		Delta: clusterDelta, Kappa: liveKappa, Tau: clusterTau, ProbeInterval: clusterProbe, FeedSeed: o.seed,
		// Eq. 8: forwarded − generated(trigger) − response time, the
		// first two on the CES clock, the last a duration the MP measured.
		OnForward: func(t *market.Trade) {
			c.sink.record(int64(t.Trigger), (t.Forwarded - sim.Time(c.gen[t.Trigger].Load()) - t.RT).Duration())
		},
	}
	if o.tr != nil {
		cfg.Flight = flight.NewRecorder(0)
	}
	var err error
	if c.ces, err = node.NewCES(cfg); err != nil {
		return nil, err
	}
	var addrs []node.MPAddr
	for id := market.ParticipantID(1); id <= 2; id++ {
		mc := node.MPConfig{
			ID: id, Listen: "127.0.0.1:0", CES: c.ces.Addr().String(),
			Delta: clusterDelta, Tau: clusterTau, Strategy: c.strategy(id),
			OnExec: func(e wire.Exec) { c.fills.add(e.Seq) },
		}
		if id == 2 {
			mc.CESTCP = c.ces.TCPAddr().String() // MP 2's reverse path is framed TCP
		}
		if o.tr != nil {
			mc.Flight = flight.NewRecorder(0)
		}
		mp, err := node.StartMP(mc)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.mps = append(c.mps, mp)
		addrs = append(addrs, node.MPAddr{ID: id, Addr: mp.Addr().String()})
	}
	c.started = time.Now()
	if err := c.ces.Start(addrs); err != nil {
		c.stop()
		return nil, err
	}
	if err := c.sink.up(); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

func runLiveCluster(o segOpts) (segment, error) {
	var s segment
	t0 := time.Now()
	c, err := startCluster(o)
	if err != nil {
		return s, err
	}
	defer c.stop()
	s.build = time.Since(t0)

	time.Sleep(liveRamp)
	s.setup = time.Since(t0)
	o.tr.startProfile()
	w := openWindow()
	c.measuring.Store(true)
	time.Sleep(o.dur)
	c.measuring.Store(false)
	w.close(&s)
	o.tr.stopProfile() // after the window: stopping waits on the profile writer

	// Let the window's last races finish — batching, pacing, the slow
	// response and the watermark wait are each a few intervals — then
	// stop answering and let the last fills be reported.
	const drain = 4 * (clusterDelta + clusterSlowRT)
	p0, p1 := c.p0.Load(), c.p1.Load()
	time.Sleep(drain)
	c.quiet.Store(true)
	time.Sleep(drain)
	lat := c.sink.within(p0, p1)
	s.trades = int64(len(lat))
	s.lat = quantilesOf(lat)
	s.tally.Attempted = 2 * (p1 - p0 + 1) // both participants answer every point
	s.tally.Lost = s.tally.Attempted - s.trades
	s.layer = nodeCounters(c.ces, clusterTick, time.Since(c.started))
	settle(&s, c.ces, c.fills.count(), sim.FromDuration(clusterDelta))
	if p0 == 0 || s.trades == 0 {
		return s, fmt.Errorf("no trade was forwarded inside the window")
	}
	return s, nil
}
