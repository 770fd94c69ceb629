package main

import (
	"fmt"
	"time"

	"dbo/internal/core"
	"dbo/internal/feed"
	"dbo/internal/lob"
	"dbo/internal/market"
	"dbo/internal/sim"
	"dbo/internal/wire"
)

const (
	pipelineMPs = 100 // watermark sources gating the OB: the widest scale of the paper's Figure 12
	// pipelineTicksPerS fixes the work per second of segment budget, so
	// a seed always drives the same ticks, trades and allocations; at
	// the seed's speed a budget second takes about a wall second.
	pipelineTicksPerS = 60_000
	pipelineWarmTicks = 4096
	latencyEvery      = 16 // forwarded trades between latency samples
	// sessionTicks is how long one matching engine lives. lob.Engine keeps
	// its whole execution log, re-grown by copying; left alone for a
	// segment it reaches hundreds of MB and the run measures the host's
	// page-fault cost. A new trading session every sessionTicks bounds it.
	sessionTicks = 8192
	basePrice    = 100_000
)

// manualSched is the pipeline's clock: the harness advances it at least
// one generation interval per tick, which keeps RB pacing satisfied, so
// a scheduled timer means the workload drifted from that invariant.
type manualSched struct{ now sim.Time }

func (s *manualSched) Now() sim.Time { return s.now }
func (s *manualSched) At(sim.Time, func()) {
	panic("dbo-load: pipeline_full scheduled a timer; pacing must hold by construction")
}

// orderFlow draws the orders every synthetic participant submits. All
// buys are priced at or above every sell, so any two opposite orders
// cross, and the side leans against the open position: the book stays
// a few dozen orders deep however long the run.
type orderFlow struct {
	rng      uint64
	position int64 // net quantity submitted, buys minus sells
}

func (f *orderFlow) rand() uint64 {
	f.rng ^= f.rng << 13
	f.rng ^= f.rng >> 7
	f.rng ^= f.rng << 17
	return f.rng
}

func (f *orderFlow) next() (side market.Side, price, qty int64) {
	r := f.rand()
	qty = 1 + int64(r>>8&7)
	off := int64(r >> 16 & 3)
	side = market.Side(r & 1)
	if f.position > 64 {
		side = market.Sell
	} else if f.position < -64 {
		side = market.Buy
	}
	if side == market.Buy {
		f.position += qty
		return side, basePrice + off, qty
	}
	f.position -= qty
	return side, basePrice - off, qty
}

// pipeline is the single-goroutine harness of pipeline_full. Every call
// into a layer is made here, so spans around them give an exact
// self-time ledger.
type pipeline struct {
	sched    manualSched
	interval sim.Time // shortest generation interval = the batch window: every point seals its batch
	gap      sim.Time // from the latest point to the next: interval plus seeded jitter
	quotes   *feed.Generator
	batcher  *core.Batcher
	rb       *core.ReleaseBuffer // MP 1's, fully modeled
	ob       *core.OrderingBuffer
	engine   *lob.Engine
	pool     market.TradePool
	flow     orderFlow
	parts    []market.ParticipantID
	seq      []market.TradeSeq // next sequence number per participant
	point    market.PointID    // latest delivered point
	scratch  market.Trade      // the trade being submitted, before the codec copies it
	msg      wire.Msg
	buf      []byte
	spans    *spanLog
	check    orderChecker

	// Latency is Eq. 8 on the manual clock: forwarded − generated(trigger)
	// − response time, in model time like sim_cloud's. The clock moves one
	// gap per tick, so this is the ordering buffer's hold; it repeats
	// exactly for a seed and moves only when release semantics do. (The wall cost of a tick is trades_per_s.) Every latencyEvery-th
	// forwarded trade is sampled while lat is non-nil.
	lat []int64

	sent, forwarded int64
	codecErrs       int64
	crossed         bool // some session's book ended crossed
}

func newPipeline(seed uint64) *pipeline {
	const delta, kappa = 20 * sim.Microsecond, 0.25
	p := &pipeline{
		quotes:  feed.New(feed.Config{Seed: seed}),
		batcher: core.NewBatcher(delta, kappa),
		engine:  lob.NewEngine(),
		flow:    orderFlow{rng: seed*2 + 1}, // xorshift must not start at 0
		seq:     make([]market.TradeSeq, pipelineMPs+1),
		buf:     make([]byte, 0, wire.MaxSize),
	}
	p.interval = p.batcher.Window()
	p.gap = p.interval
	for i := 1; i <= pipelineMPs; i++ {
		p.parts = append(p.parts, market.ParticipantID(i))
	}
	p.ob = core.NewOrderingBuffer(core.OrderingBufferConfig{Participants: p.parts, Forward: p.forward, Sched: &p.sched})
	p.rb = core.NewReleaseBuffer(core.ReleaseBufferConfig{MP: 1, Delta: delta, Sched: &p.sched, Deliver: p.deliver, Send: p.send})
	return p
}

func tradeKey(t *market.Trade) uint64 { return uint64(t.MP)<<40 | uint64(t.Seq) }

// tick advances one market data point end to end.
//
// Reverse leg first: every participant's heartbeat, sent just before
// this tick's data reached it, reports ⟨previous point, the gap since⟩
// and so releases the previous tick's trades into the matching engine.
// Then the forward leg: the point is generated, batched, encoded,
// decoded and delivered by MP 1's release buffer; MP 1 answers it
// through the RB, every other participant with probability 1/8, its
// trade pre-tagged by its own (unmodeled) RB with sub-interval jitter.
func (p *pipeline) tick() {
	sp := p.spans
	sp.begin(spStep, 0)
	elapsed := p.gap
	p.sched.now += elapsed
	now := p.sched.now
	// The feed is not perfectly periodic: the next point comes up to an
	// eighth of an interval late. MP 1 answers at once and is released by
	// the next tick's heartbeats, so without the jitter a thirteenth of
	// all latencies would be exactly one interval and the upper
	// quantiles one constant.
	p.gap = p.interval + sim.Time(p.flow.rand()%uint64(p.interval/8))

	if p.point > 0 {
		p.heartbeats(market.DeliveryClock{Point: p.point, Elapsed: elapsed})
	}
	if p.point%sessionTicks == sessionTicks-1 {
		p.endSession()
	}

	sp.begin(spFeedNext, 0)
	q := p.quotes.Next()
	sp.next(spBatcherNext, 0)
	id, batch, last := p.batcher.Next(now, now+p.gap)
	dp := market.DataPoint{
		ID: id, Batch: batch, Last: last, Gen: now, Symbol: q.Symbol,
		Price: q.Ask, Qty: q.AskSize, BidSide: q.BidMoved,
		Ctx: market.TraceCtx{Origin: market.NodeCES},
	}
	if q.BidMoved {
		dp.Price, dp.Qty = q.Bid, q.BidSize
	}
	sp.next(spEncodeData, 0)
	p.buf = wire.AppendMarketData(p.buf[:0], dp)
	sp.next(spDecodeData, 0)
	err := wire.DecodeInto(&p.msg, p.buf)
	sp.next(spRBData, 0)
	if err != nil {
		p.codecErrs++
	} else {
		p.rb.OnData(p.msg.Data) // delivers; deliver() answers as MP 1
	}
	sp.end()

	for _, mp := range p.parts[1:] {
		if p.flow.rand()&7 != 0 {
			continue
		}
		t := p.order(mp, dp)
		t.RT = 1 + sim.Time(p.flow.rand()%uint64(p.interval/2))
		t.DC = market.DeliveryClock{Point: p.point, Elapsed: t.RT}
		t.Ctx = market.TraceCtx{Origin: market.NodeOfMP(mp)}
		p.ingest(t)
	}
	sp.end()
}

// endSession checks the matching engine's book and opens a fresh engine.
func (p *pipeline) endSession() {
	p.crossed = p.crossed || p.engine.Book(1).Crossed()
	p.engine = lob.NewEngine()
}

// heartbeats carries one heartbeat per participant over the codec into
// the ordering buffer.
func (p *pipeline) heartbeats(dc market.DeliveryClock) {
	sp := p.spans
	hb := market.Heartbeat{DC: dc, Sent: p.sched.now}
	for _, mp := range p.parts {
		hb.MP, hb.Ctx = mp, market.TraceCtx{Origin: market.NodeOfMP(mp)}
		sp.begin(spEncodeHeartbeat, 0)
		p.buf = wire.AppendHeartbeat(p.buf[:0], hb)
		sp.next(spDecodeHeartbeat, 0)
		err := wire.DecodeInto(&p.msg, p.buf)
		sp.next(spOBHeartbeat, 0)
		if err != nil {
			p.codecErrs++
		} else {
			p.ob.OnHeartbeat(p.msg.Heartbeat)
		}
		sp.end()
	}
}

// order fills the scratch trade with mp's next order on dp.
func (p *pipeline) order(mp market.ParticipantID, dp market.DataPoint) *market.Trade {
	p.seq[mp]++
	side, price, qty := p.flow.next()
	p.scratch = market.Trade{
		MP: mp, Seq: p.seq[mp], Symbol: dp.Symbol, Side: side, Price: price, Qty: qty,
		Trigger: dp.ID, Submitted: p.sched.now,
	}
	return &p.scratch
}

// deliver is MP 1's strategy: it answers every delivered point at once
// (response time 0), through its release buffer, which tags the trade.
func (p *pipeline) deliver(b *market.Batch) {
	p.point = b.LastPoint()
	p.spans.begin(spStrategy, 0)
	for _, dp := range b.Points {
		t := p.order(1, dp)
		p.spans.begin(spRBTrade, tradeKey(t))
		p.rb.OnTrade(t) // tags, then send()
		p.spans.end()
	}
	p.spans.end()
}

func (p *pipeline) send(v any) {
	if t, ok := v.(*market.Trade); ok {
		p.ingest(t)
	}
}

// ingest carries one tagged trade over the codec into the ordering buffer.
func (p *pipeline) ingest(t *market.Trade) {
	sp, key := p.spans, tradeKey(t)
	p.sent++
	sp.begin(spEncodeTrade, key)
	p.buf = wire.AppendTrade(p.buf[:0], t)
	sp.next(spDecodeTrade, key)
	in := p.pool.Get()
	err := wire.DecodeTradeInto(in, p.buf)
	sp.next(spOBTrade, key)
	if err != nil {
		p.codecErrs++
		p.pool.Put(in)
	} else {
		p.ob.OnTrade(in)
	}
	sp.end()
}

// forward is the matching-engine ingress: submit, encode the fills'
// execution reports, score the order.
func (p *pipeline) forward(t *market.Trade) {
	sp, key := p.spans, tradeKey(t)
	sp.begin(spLOBSubmit, key)
	_, execs, err := p.engine.Submit(t.Symbol, int32(t.MP), lobSide(t.Side), t.Price, t.Qty)
	sp.next(spEncodeExec, key)
	for _, e := range execs {
		p.buf = wire.AppendExec(p.buf[:0], wire.Exec{
			Maker: uint64(e.Maker), Taker: uint64(e.Taker), MakerOwner: e.MakerOwner, TakerOwner: e.TakerOwner,
			Price: e.Price, Qty: e.Qty, Seq: e.Seq,
		})
	}
	sp.next(spCheck, key)
	if err == nil {
		p.forwarded++
	}
	if p.lat != nil && p.forwarded%latencyEvery == 0 {
		p.lat = append(p.lat, int64(t.Forwarded-t.Submitted-t.RT))
	}
	p.check.observe(t)
	sp.end()
	p.pool.Put(t)
}

func runPipelineFull(o segOpts) (segment, error) {
	var s segment
	t0 := time.Now()
	p := newPipeline(o.seed)
	for i := 0; i < pipelineWarmTicks; i++ {
		p.tick() // fills the trade pool, the bucket free list and the book
	}
	s.setup = time.Since(t0)
	s.build = s.setup

	ticks := int(o.dur.Seconds() * pipelineTicksPerS)
	p.lat = make([]int64, 0, ticks) // ~13 trades a tick, one in latencyEvery sampled
	sent0, fwd0 := p.sent, p.forwarded
	if o.tr != nil && o.tr.wantSpans {
		o.tr.spans = newSpanLog()
		p.spans = o.tr.spans
	}
	o.tr.startProfile()
	w := openWindow()
	for i := 0; i < ticks; i++ {
		p.tick()
	}
	w.close(&s)
	o.tr.stopProfile() // after the window: stopping waits on the profile writer
	p.spans = nil
	s.trades = p.forwarded - fwd0

	// Final flush: one more heartbeat round, far ahead, releases what
	// the last tick submitted; then sent must equal forwarded.
	p.sched.now += p.interval
	p.heartbeats(market.DeliveryClock{Point: p.point, Elapsed: sim.Second})

	s.lat = quantilesOf(p.lat)
	s.over = s.lat          // no network in the harness: the Theorem-3 floor is 0, and all of the latency is DBO's
	s.tally = p.check.tally // scored since construction: a violation in the warm-up is still one
	s.tally.Attempted = p.sent - sent0
	s.tally.Lost = p.sent - p.forwarded
	p.endSession()
	s.tally.Unreported = p.codecErrs
	if p.crossed {
		s.tally.Unreported++
	}
	s.fairness = s.tally.fairness()
	if s.trades == 0 {
		return s, fmt.Errorf("pipeline forwarded no trades")
	}
	return s, nil
}
