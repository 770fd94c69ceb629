// Package exchange wires a complete simulated deployment — CES with
// matching engine, network star topology, release buffers, market
// participants, and the ordering scheme under test — and runs the
// paper's workload (§6.1) on it deterministically.
package exchange

import (
	"fmt"
	"math/rand/v2"

	"dbo/internal/baseline"
	"dbo/internal/clock"
	"dbo/internal/core"
	"dbo/internal/fairness"
	"dbo/internal/feed"
	"dbo/internal/flight"
	"dbo/internal/lob"
	"dbo/internal/market"
	"dbo/internal/netsim"
	"dbo/internal/replay"
	"dbo/internal/sim"
	"dbo/internal/stats"
)

// Result summarizes one run.
type Result struct {
	Scheme    Scheme
	Fairness  float64     // §6.1 pairwise metric
	FairRatio stats.Ratio // raw correct/total pair counts
	Latency   stats.Summary
	MaxRTT    stats.Summary // per-trade Theorem-3 lower bound

	Trades     int // trades scored (post-warmup)
	Lost       int // submitted but never forwarded
	Races      int
	DataPoints int
	Executions int // fills produced by the matching engine

	StragglerEvents  int
	CloudExOverruns  int
	RetxRequests     int
	DroppedPackets   int
	HeartbeatsSent   int
	MasterHeartbeats int // heartbeats absorbed by (sharded) master OB

	// Fault-plan effect counters, summed over all links.
	DupPackets       int // duplicate copies injected
	ReorderedPackets int // packets delivered out of FIFO order
	WindowDrops      int // packets destroyed by partition windows

	// External-stream races (§4.2.6): fairness over trades triggered by
	// external events (1.0 when none were configured).
	ExternalFairness float64
	ExternalPairs    int

	// Raw samples, only when Config.CollectSamples.
	LatencySamples *stats.Latencies
	MaxRTTSamples  *stats.Latencies

	// TradeLog is the forwarded trades in final ME order, only when
	// Config.KeepTrades.
	TradeLog []*market.Trade

	Violations []fairness.Violation // up to 16, for diagnostics
}

// slowPathDelay is the latency of the out-of-band retransmission path.
const slowPathDelay = 500 * sim.Microsecond

// Run executes the configured simulation and scores it.
func Run(cfg Config) *Result {
	cfg = cfg.withDefaults()
	h := newHarness(cfg)
	h.start()
	h.k.RunUntil(cfg.Duration + cfg.Drain)
	return h.score()
}

type harness struct {
	cfg Config
	k   *sim.Kernel

	paths []*netsim.Path
	slow  []*netsim.Link // out-of-band retransmission path per MP
	mps   []*mpSim

	// Scheme components (exactly one group is non-nil).
	rbs      []*core.ReleaseBuffer
	ob       *core.OrderingBuffer
	shardOB  *core.ShardedOB
	fcfs     *baseline.FCFS
	cxRel    []*baseline.CloudExRelease
	cxOrd    *baseline.CloudExOrder
	fba      *baseline.FBA
	libra    *baseline.Libra
	directRl []*baseline.DirectRelease

	engine  *lob.Engine
	batcher *core.Batcher

	genTimes  []sim.Time         // G(x) indexed by point id-1
	genPoints []market.DataPoint // generated points for retransmission
	trades    market.TradeArena  // every submitted trade: the OB, submitted and the trade log hold it

	// External opportunity stream (§4.2.6).
	bypass   []*netsim.Link              // direct external feed per MP
	extGen   map[market.PointID]sim.Time // generation time per external id
	extIDs   map[market.PointID]bool     // serialized points that are external
	extCount int

	// Per-node flight recorders (resolved from cfg.FlightFor, falling
	// back to the shared cfg.Flight): cesFlight records CES-side events
	// (gen/seal, OB, ME), rbFlight[i] participant i+1's RB events.
	cesFlight *flight.Recorder
	rbFlight  []*flight.Recorder

	audit      *replay.Recorder
	tracker    *fairness.Tracker
	extTracker *fairness.Tracker
	latency    stats.Latencies
	maxRTT     stats.Latencies
	submitted  map[market.TradeKey]*market.Trade
	tradeLog   []*market.Trade
	beats      int

	// Boxes for heartbeats in flight on the reverse links, recycled when
	// they arrive. Reverse links never duplicate (wireFaults), so a box
	// has one owner from sendHeartbeat to onUpstream.
	beatBoxes []*market.Heartbeat
}

// extBase offsets external pseudo-point ids away from market data ids.
const extBase market.PointID = 1 << 40

// externalEvent is the bypass-path message modelling an internet feed.
type externalEvent struct {
	ID    market.PointID
	Price int64
}

type mpSim struct {
	h     *harness
	id    market.ParticipantID
	idx   int
	rng   *rand.Rand
	seq   market.TradeSeq
	local clock.Local

	// Decided trades waiting out their response time. The MP is the
	// sim.Handler of its own response timers; the kernel event carries
	// the slot index.
	pending sim.Slab[pendingTrade]
}

// pendingTrade is a trade an MP has decided on and will submit once its
// response time has passed.
type pendingTrade struct {
	trigger market.PointID
	symbol  uint32
	price   int64
	rt      sim.Time
}

func newHarness(cfg Config) *harness {
	h := &harness{
		cfg:        cfg,
		k:          sim.NewKernel(cfg.Seed),
		engine:     lob.NewEngine(),
		tracker:    fairness.NewTracker(),
		extTracker: fairness.NewTracker(),
		extGen:     make(map[market.PointID]sim.Time),
		extIDs:     make(map[market.PointID]bool),
		submitted:  make(map[market.TradeKey]*market.Trade),
	}
	if cfg.Audit != nil {
		h.audit = replay.NewRecorder(cfg.Audit)
	}
	h.cesFlight = cfg.Flight
	h.rbFlight = make([]*flight.Recorder, cfg.N)
	for i := range h.rbFlight {
		h.rbFlight[i] = cfg.Flight
	}
	if cfg.FlightFor != nil {
		h.cesFlight = cfg.FlightFor(market.NodeCES)
		h.cesFlight.SetNode(market.NodeCES)
		for i := range h.rbFlight {
			node := market.NodeOfMP(market.ParticipantID(i + 1))
			h.rbFlight[i] = cfg.FlightFor(node)
			h.rbFlight[i].SetNode(node)
		}
	}
	h.buildMPs()
	h.buildNetwork()
	h.buildScheme()
	return h
}

func (h *harness) buildMPs() {
	for i := 0; i < h.cfg.N; i++ {
		var local clock.Local = clock.Perfect{}
		if h.cfg.LocalClocks != nil {
			local = h.cfg.LocalClocks[i]
		} else if h.cfg.ClockDrift {
			rng := h.k.SubRand(uint64(i) + 7000)
			local = clock.Drifting{
				Offset: sim.Time(rng.Int64N(int64(sim.Second))),
				Rate:   (rng.Float64()*2 - 1) * 2e-4, // within ±0.02%
			}
		}
		h.mps = append(h.mps, &mpSim{
			h:     h,
			id:    market.ParticipantID(i + 1),
			idx:   i,
			rng:   h.k.SubRand(uint64(i) + 1),
			local: local,
		})
	}
}

func (h *harness) buildNetwork() {
	fwdRecv := func(i int) func(v any) {
		return func(v any) { h.onMarketData(i, *v.(*market.DataPoint)) }
	}
	revRecv := func(i int) func(v any) {
		return func(v any) { h.onUpstream(v) }
	}
	h.paths = netsim.Star(h.k, netsim.StarConfig{
		Base:     h.cfg.Trace,
		N:        h.cfg.N,
		Seed:     h.cfg.Seed ^ 0xfeed,
		Skew:     h.cfg.Skew,
		LossRate: h.cfg.LossRate,
	}, fwdRecv, revRecv)
	h.wireFaults()
	for i := 0; i < h.cfg.N; i++ {
		i := i
		h.slow = append(h.slow, netsim.NewLink(h.k, netsim.Constant(slowPathDelay),
			func(v any) { h.onMarketData(i, *v.(*market.DataPoint)) }))
	}
	if h.cfg.ExternalEvery > 0 && h.cfg.ExternalBypass {
		// Internet-grade external feed: ~1ms with strong per-participant
		// static differences (the paper notes ms-scale variability for
		// such streams, §4.2.6).
		for i := 0; i < h.cfg.N; i++ {
			i := i
			lat := sim.Millisecond + sim.Time(i)*100*sim.Microsecond
			h.bypass = append(h.bypass, netsim.NewLink(h.k, netsim.Constant(lat),
				func(v any) { h.mps[i].onExternal(v.(externalEvent)) }))
		}
	}
}

// wireFaults applies the FaultPlan to the freshly built topology.
// Dup/reorder touch only the forward (market data, UDP-like) links;
// the reverse path keeps the in-order delivery its framed-TCP model
// guarantees. Each fault draws from its own sub-rng so plans replay
// identically and adding one fault never perturbs another.
func (h *harness) wireFaults() {
	fp := &h.cfg.Faults
	for i, p := range h.paths {
		if fp.DupRate > 0 {
			p.Fwd.EnableDup(fp.DupRate, fp.DupLag, h.k.SubRand(uint64(i)*2+4000))
		}
		if fp.ReorderRate > 0 {
			p.Fwd.EnableReorder(fp.ReorderRate, fp.ReorderJitter, h.k.SubRand(uint64(i)*2+4001))
		}
	}
	for _, part := range fp.Partitions {
		for i, p := range h.paths {
			if part.MP != 0 && part.MP != i+1 {
				continue
			}
			if part.Dir != PartitionRev {
				p.Fwd.DropDuring(part.From, part.To)
			}
			if part.Dir != PartitionFwd {
				p.Rev.DropDuring(part.From, part.To)
			}
		}
	}
	if a := fp.Attack; a != nil {
		h.paths[a.MP-1].Rev.Elevate(a.From, a.To, a.Extra)
	}
}

func (h *harness) buildScheme() {
	parts := make([]market.ParticipantID, h.cfg.N)
	for i := range parts {
		parts[i] = market.ParticipantID(i + 1)
	}
	genTime := func(p market.PointID) sim.Time {
		if p == 0 || int(p) > len(h.genTimes) {
			return 0
		}
		return h.genTimes[p-1]
	}

	// One policy instance per run (fresh learning state), shared across
	// shards so the population median sees every participant.
	var policy core.ThresholdPolicy
	if h.cfg.Adaptive != nil {
		policy = core.NewAdaptiveThreshold(*h.cfg.Adaptive, h.cfg.StragglerRTT)
	}

	switch h.cfg.Scheme {
	case DBO:
		h.batcher = core.NewBatcher(h.cfg.Delta, h.cfg.Kappa)
		for i := 0; i < h.cfg.N; i++ {
			i := i
			h.rbs = append(h.rbs, core.NewReleaseBuffer(core.ReleaseBufferConfig{
				MP:         parts[i],
				Delta:      h.cfg.Delta,
				Tau:        h.cfg.Tau,
				SyncOffset: h.cfg.SyncOffset,
				Sched:      h.k,
				Local:      h.mps[i].local,
				Flight:     h.rbFlight[i],
				Deliver:    func(b *market.Batch) { h.mps[i].onBatch(b) },
				// Nothing downstream keeps a delivered batch: the MP copies
				// the points it trades on, and Hooks.OnBatch may not retain.
				RecycleBatches: true,
				Send: func(v any) {
					if h.cfg.Hooks.OnTag != nil {
						h.cfg.Hooks.OnTag(i, v)
					}
					h.paths[i].Rev.Send(v)
				},
				SendHeartbeat: func(hb market.Heartbeat) { h.sendHeartbeat(i, hb) },
			}))
		}
		if h.cfg.OBShards > 1 {
			h.shardOB = core.NewShardedOB(core.ShardedOBConfig{
				Participants: parts,
				NumShards:    h.cfg.OBShards,
				Sched:        h.k,
				Forward:      h.onForward,
				StragglerRTT: h.cfg.StragglerRTT,
				Threshold:    policy,
				GenTime:      genTime,
				OnStraggler:  h.cfg.Hooks.OnStraggler,
				Flight:       h.cesFlight,
			})
		} else {
			h.ob = core.NewOrderingBuffer(core.OrderingBufferConfig{
				Participants: parts,
				Forward:      h.onForward,
				Sched:        h.k,
				StragglerRTT: h.cfg.StragglerRTT,
				Threshold:    policy,
				GenTime:      genTime,
				OnStraggler:  h.cfg.Hooks.OnStraggler,
				Flight:       h.cesFlight,
			})
		}
	case Direct:
		for i := 0; i < h.cfg.N; i++ {
			i := i
			h.directRl = append(h.directRl, &baseline.DirectRelease{
				Deliver: func(b *market.Batch) { h.mps[i].onBatch(b) },
			})
		}
		h.fcfs = &baseline.FCFS{Sched: h.k, Forward: h.onForward}
	case CloudEx:
		for i := 0; i < h.cfg.N; i++ {
			i := i
			h.cxRel = append(h.cxRel, &baseline.CloudExRelease{
				C1: h.cfg.C1, Sched: h.k,
				Deliver: func(b *market.Batch) { h.mps[i].onBatch(b) },
			})
		}
		h.cxOrd = &baseline.CloudExOrder{C2: h.cfg.C2, Sched: h.k, Forward: h.onForward}
	case FBA:
		for i := 0; i < h.cfg.N; i++ {
			i := i
			h.directRl = append(h.directRl, &baseline.DirectRelease{
				Deliver: func(b *market.Batch) { h.mps[i].onBatch(b) },
			})
		}
		h.fba = &baseline.FBA{Interval: h.cfg.FBAInterval, Sched: h.k,
			Forward: h.onForward, Rng: h.k.SubRand(0xfba)}
	case Libra:
		for i := 0; i < h.cfg.N; i++ {
			i := i
			h.directRl = append(h.directRl, &baseline.DirectRelease{
				Deliver: func(b *market.Batch) { h.mps[i].onBatch(b) },
			})
		}
		h.libra = &baseline.Libra{Window: h.cfg.LibraWindow, Sched: h.k,
			Forward: h.onForward, Rng: h.k.SubRand(0x11b4)}
	default:
		panic("exchange: unknown scheme")
	}
}

// sendHeartbeat carries RB i's heartbeat to the CES in a recycled box
// rather than boxing the value afresh for the link's any.
func (h *harness) sendHeartbeat(i int, hb market.Heartbeat) {
	h.beats++
	if h.cfg.Hooks.OnTag != nil {
		h.cfg.Hooks.OnTag(i, hb)
	}
	var box *market.Heartbeat
	if n := len(h.beatBoxes); n > 0 {
		box, h.beatBoxes = h.beatBoxes[n-1], h.beatBoxes[:n-1]
	} else {
		box = new(market.Heartbeat)
	}
	*box = hb
	if h.paths[i].Rev.Send(box) < 0 {
		h.beatBoxes = append(h.beatBoxes, box) // dropped: nothing will arrive to free it
	}
}

// start schedules the CES tick loop and periodic OB maintenance.
func (h *harness) start() {
	quotes := feed.New(feed.Config{Seed: h.cfg.Seed ^ 0xfeed, Symbols: h.cfg.Symbols})
	tickNo := 0
	emit := func(gen, nextGen sim.Time) {
		q := quotes.Next()
		price := q.Ask
		qty := q.AskSize
		if q.BidMoved {
			price = q.Bid
			qty = q.BidSize
		}
		dp := market.DataPoint{
			Gen:     gen,
			Symbol:  q.Symbol,
			Price:   price,
			Qty:     qty,
			BidSide: q.BidMoved,
			Ctx:     market.TraceCtx{Origin: market.NodeCES},
		}
		if h.batcher != nil {
			id, batch, last := h.batcher.Next(gen, nextGen)
			if nextGen >= h.cfg.Duration {
				last = true // final point of the run closes its batch
			}
			dp.ID, dp.Batch, dp.Last = id, batch, last
		} else {
			dp.ID = market.PointID(len(h.genTimes) + 1)
			dp.Batch = market.BatchID(dp.ID)
			dp.Last = true
		}
		h.genTimes = append(h.genTimes, gen)
		h.genPoints = append(h.genPoints, dp)
		if h.audit != nil {
			h.audit.Gen(gen, dp)
		}
		if f := h.cesFlight; f.Enabled() {
			f.Emit(flight.Event{At: gen, Kind: flight.KindGen, Point: dp.ID, Batch: dp.Batch})
			if dp.Last {
				f.Emit(flight.Event{At: gen, Kind: flight.KindSeal, Point: dp.ID, Batch: dp.Batch})
			}
		}
		// Every link carries a pointer to the kept point: elements are
		// never written after the append, and a pointer into a backing
		// array that a later append outgrew still reads the same point.
		sent := &h.genPoints[len(h.genPoints)-1]
		for _, p := range h.paths {
			p.Fwd.Send(sent)
		}
		tickNo++
		if h.cfg.ExternalEvery > 0 && tickNo%h.cfg.ExternalEvery == 0 {
			if h.cfg.ExternalBypass {
				// The event races to the MPs on its own path; DBO never
				// sees it.
				h.extCount++
				ev := externalEvent{ID: extBase + market.PointID(h.extCount), Price: price}
				h.extGen[ev.ID] = gen
				var boxed any = ev
				for _, l := range h.bypass {
					l.Send(boxed)
				}
			} else {
				// Serialized into the super-stream: this tick's data
				// point *is* the external event.
				h.extIDs[dp.ID] = true
			}
		}
	}
	if h.cfg.TickJitter == 0 && h.cfg.Faults.Burst == nil {
		h.k.Every(0, h.cfg.TickInterval, func() bool {
			gen := h.k.Now()
			if gen >= h.cfg.Duration {
				return false
			}
			emit(gen, gen+h.cfg.TickInterval)
			return true
		})
	} else {
		// Bursty generation: i.i.d. gaps of TickInterval·U[1−j, 1+j]. The
		// next gap is drawn before emitting so the batcher still knows
		// the following point's generation time (Last flags stay exact).
		// A FeedBurst further compresses gaps by Factor inside its
		// window — the flash-event tick-rate multiplier.
		jrng := h.k.SubRand(h.cfg.Seed ^ 0xb245)
		var tick func()
		tick = func() {
			gen := h.k.Now()
			if gen >= h.cfg.Duration {
				return
			}
			f := 1 - h.cfg.TickJitter + 2*h.cfg.TickJitter*jrng.Float64()
			gap := sim.Time(float64(h.cfg.TickInterval) * f)
			if b := h.cfg.Faults.Burst; b != nil && gen >= b.From && gen < b.To {
				gap /= sim.Time(b.Factor)
			}
			if gap < 1 {
				gap = 1
			}
			emit(gen, gen+gap)
			h.k.At(gen+gap, tick)
		}
		h.k.At(0, tick)
	}

	if h.rbs != nil {
		for _, rb := range h.rbs {
			rb.Start()
		}
		for _, o := range h.cfg.Faults.Outages {
			rb := h.rbs[o.MP-1]
			h.k.At(o.From, rb.Stop)
			h.k.At(o.To, rb.Resume)
		}
		tick := h.cfg.Tau
		h.k.Every(tick, tick, func() bool {
			if h.ob != nil {
				h.ob.Tick()
			} else {
				h.shardOB.Tick()
			}
			return h.k.Now() < h.cfg.Duration+h.cfg.Drain
		})
	}
	if h.fba != nil {
		h.fba.Start()
	}
}

// onMarketData dispatches a point arriving at participant i's edge.
func (h *harness) onMarketData(i int, dp market.DataPoint) {
	dp.Ctx.Hop++ // network ingress at the RB node
	switch {
	case h.rbs != nil:
		h.rbs[i].OnData(dp)
	case h.cxRel != nil:
		h.cxRel[i].OnData(dp)
	default:
		h.directRl[i].OnData(dp)
	}
}

// onUpstream dispatches reverse-path traffic arriving at the CES.
func (h *harness) onUpstream(v any) {
	if box, ok := v.(*market.Heartbeat); ok {
		// Unbox and free the box first; hooks see the value, as OnTag did.
		hb := *box
		h.beatBoxes = append(h.beatBoxes, box)
		if h.cfg.Hooks.OnUpstream != nil {
			h.cfg.Hooks.OnUpstream(hb, h.k.Now())
		}
		hb.Ctx.Hop++ // network ingress at the CES node
		if h.ob != nil {
			h.ob.OnHeartbeat(hb)
		} else if h.shardOB != nil {
			h.shardOB.OnHeartbeat(hb)
		}
		return
	}
	if h.cfg.Hooks.OnUpstream != nil {
		h.cfg.Hooks.OnUpstream(v, h.k.Now())
	}
	switch m := v.(type) {
	case *market.Trade:
		m.Ctx.Hop++ // network ingress at the CES node
		if h.audit != nil {
			h.audit.Recv(h.k.Now(), m)
		}
		switch {
		case h.ob != nil:
			h.ob.OnTrade(m)
		case h.shardOB != nil:
			h.shardOB.OnTrade(m)
		case h.fcfs != nil:
			h.fcfs.OnTrade(m)
		case h.cxOrd != nil:
			h.cxOrd.OnTrade(m)
		case h.fba != nil:
			h.fba.OnTrade(m)
		case h.libra != nil:
			h.libra.OnTrade(m)
		}
	case core.RetxRequest:
		// Out-of-band repair on the slow path (Appendix D).
		for id := m.From; id <= m.To; id++ {
			if int(id) <= len(h.genPoints) {
				h.slow[int(m.MP)-1].Send(&h.genPoints[id-1])
			}
		}
	}
}

// onBatch is the MP's reaction to delivered market data: for each point
// it may start a speed trade, submitting after its response time.
func (m *mpSim) onBatch(b *market.Batch) {
	h := m.h
	if h.cfg.Hooks.OnDeliver != nil {
		h.cfg.Hooks.OnDeliver(m.idx, uint64(b.LastPoint()), h.k.Now())
	}
	if h.cfg.Hooks.OnBatch != nil {
		h.cfg.Hooks.OnBatch(m.idx, b, h.k.Now())
	}
	h.cfg.Auditor.OnDeliver(m.id, b, h.k.Now())
	for _, dp := range b.Points {
		if m.rng.Float64() >= h.cfg.TradeProb {
			continue
		}
		m.respond(dp.ID, dp.Symbol, dp.Price)
	}
}

// onExternal reacts to a bypass-path external event: the trade it
// triggers is a speed race DBO knows nothing about (§4.2.6).
func (m *mpSim) onExternal(ev externalEvent) {
	h := m.h
	if m.rng.Float64() >= h.cfg.TradeProb {
		return
	}
	m.respond(ev.ID, 1, ev.Price)
}

// respond draws a response time and schedules the trade's submission
// for when it has passed, parking the decision in a pending slot.
func (m *mpSim) respond(trigger market.PointID, symbol uint32, price int64) {
	p := pendingTrade{trigger: trigger, symbol: symbol, price: price, rt: m.drawRT()}
	m.h.k.Schedule(m.h.k.Now()+p.rt, m, m.pending.Put(p))
}

// Fire submits the pending trade in slot i; it is the sim.Handler of
// the events respond schedules.
func (m *mpSim) Fire(i int) {
	p := m.pending.Take(i)
	m.submit(p.trigger, p.symbol, p.price, p.rt)
}

func (m *mpSim) drawRT() sim.Time {
	rt := m.h.cfg.RTMin
	if m.h.cfg.RTMax > m.h.cfg.RTMin {
		rt += sim.Time(m.rng.Int64N(int64(m.h.cfg.RTMax - m.h.cfg.RTMin + 1)))
	}
	return rt
}

func (m *mpSim) submit(trigger market.PointID, symbol uint32, price int64, rt sim.Time) {
	h := m.h
	m.seq++
	side := market.Buy
	if m.rng.IntN(2) == 1 {
		side = market.Sell
	}
	t := h.trades.New()
	*t = market.Trade{
		MP:        m.id,
		Seq:       m.seq,
		Symbol:    symbol,
		Side:      side,
		Price:     price,
		Qty:       1,
		Trigger:   trigger,
		Submitted: h.k.Now(),
		RT:        rt,
	}
	h.submitted[t.Key()] = t
	if h.rbs != nil {
		h.rbs[m.idx].OnTrade(t) // tags DC, sends via the reverse link
	} else {
		h.paths[m.idx].Rev.Send(t)
	}
}

// onForward is the matching-engine ingress: the scheme has fixed the
// trade's final position; execute it and score it.
func (h *harness) onForward(t *market.Trade) {
	if h.audit != nil {
		h.audit.Forward(h.k.Now(), t)
	}
	side := lob.Buy
	if t.Side == market.Sell {
		side = lob.Sell
	}
	// The ME is unmodified (§3): it simply executes in arrival order.
	_, _, err := h.engine.Submit(t.Symbol, int32(t.MP), side, t.Price, t.Qty)
	if err != nil {
		panic(err)
	}
	if f := h.cesFlight; f.Enabled() {
		f.Emit(flight.Event{
			At: h.k.Now(), Kind: flight.KindMatch,
			MP: t.MP, Seq: t.Seq, Aux: int64(t.FinalPos),
			Hop: t.Ctx.Hop,
		})
	}
	h.cfg.Auditor.OnForward(t, h.k.Now())
	delete(h.submitted, t.Key())
	if h.cfg.KeepTrades {
		h.tradeLog = append(h.tradeLog, t)
	}
	if h.cfg.Hooks.OnForward != nil {
		h.cfg.Hooks.OnForward(int(t.MP)-1, t.Forwarded)
	}
	if h.cfg.Hooks.OnRelease != nil {
		h.cfg.Hooks.OnRelease(t)
	}

	trigGen, external := h.triggerGen(t.Trigger)
	if trigGen < h.cfg.Warmup {
		return
	}
	if external {
		// Bypass-path races are scored separately; their "latency" is
		// not comparable (the event never traversed the exchange).
		h.extTracker.Record(t)
		return
	}
	h.tracker.Record(t)
	if h.extIDs[t.Trigger] {
		h.extTracker.Record(t) // serialized external race
	}
	lat := t.Forwarded - trigGen - t.RT
	h.latency.Add(lat)
	h.maxRTT.Add(h.boundFor(trigGen, t.Submitted))
	if h.cfg.Hooks.OnScore != nil {
		h.cfg.Hooks.OnScore(int(t.MP)-1, trigGen, lat)
	}
}

// triggerGen resolves a trigger id to its generation time, reporting
// whether it was a bypass-path external event.
func (h *harness) triggerGen(p market.PointID) (sim.Time, bool) {
	if p >= extBase {
		return h.extGen[p], true
	}
	return h.genTimes[p-1], false
}

// boundFor computes the Theorem-3 latency lower bound for a trade whose
// trigger was generated at g and which was submitted at s: the maximum
// over participants of (forward latency at g) + (reverse latency at s).
func (h *harness) boundFor(g, s sim.Time) sim.Time {
	var max sim.Time
	for _, p := range h.paths {
		if r := p.Fwd.LatencyAt(g) + p.Rev.LatencyAt(s); r > max {
			max = r
		}
	}
	return max
}

func (h *harness) score() *Result {
	if h.audit != nil {
		if err := h.audit.Close(); err != nil {
			panic(fmt.Sprintf("exchange: audit log: %v", err))
		}
	}
	r := &Result{
		Scheme:     h.cfg.Scheme,
		DataPoints: len(h.genTimes),
		Executions: h.engine.Executions(),
	}
	// Anything still un-forwarded was lost (network loss, OB stall, ...).
	for _, t := range h.submitted {
		trigGen, external := h.triggerGen(t.Trigger)
		if trigGen < h.cfg.Warmup {
			continue
		}
		r.Lost++
		if external {
			h.extTracker.RecordLost(t)
		} else {
			h.tracker.RecordLost(t)
		}
	}
	r.FairRatio, r.Violations = h.tracker.Score(16)
	r.Fairness = r.FairRatio.Value()
	r.Latency = h.latency.Summarize()
	r.MaxRTT = h.maxRTT.Summarize()
	r.Trades = h.latency.N()
	r.Races = h.tracker.Races()
	r.HeartbeatsSent = h.beats
	ext := h.extTracker.Ratio()
	r.ExternalFairness = ext.Value()
	r.ExternalPairs = ext.Total
	r.TradeLog = h.tradeLog

	if h.ob != nil {
		r.StragglerEvents = h.ob.StragglerEvents
	}
	if h.shardOB != nil {
		r.StragglerEvents = h.shardOB.Master.StragglerEvents
		for _, s := range h.shardOB.Shards {
			r.StragglerEvents += s.StragglerEvents
			r.MasterHeartbeats += s.HeartbeatsOut
		}
	} else {
		r.MasterHeartbeats = h.beats
	}
	for _, rel := range h.cxRel {
		r.CloudExOverruns += rel.Overruns
	}
	if h.cxOrd != nil {
		r.CloudExOverruns += h.cxOrd.Overruns
	}
	for _, rb := range h.rbs {
		r.RetxRequests += rb.RetxRequested
	}
	for _, p := range h.paths {
		_, d1 := p.Fwd.Stats()
		_, d2 := p.Rev.Stats()
		r.DroppedPackets += d1 + d2
		for _, l := range [2]*netsim.Link{p.Fwd, p.Rev} {
			dup, reord, wdrop := l.FaultStats()
			r.DupPackets += dup
			r.ReorderedPackets += reord
			r.WindowDrops += wdrop
		}
	}
	if h.cfg.CollectSamples {
		r.LatencySamples = &h.latency
		r.MaxRTTSamples = &h.maxRTT
	}
	return r
}
