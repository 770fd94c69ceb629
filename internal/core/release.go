package core

import (
	"fmt"

	"dbo/internal/clock"
	"dbo/internal/flight"
	"dbo/internal/market"
	"dbo/internal/sim"
)

// RetxRequest is the out-of-band retransmission request an RB sends
// when it detects a gap in the market data stream (Appendix D). Losses
// are repaired on a slower path and never advance the delivery clock.
type RetxRequest struct {
	MP       market.ParticipantID
	From, To market.PointID // inclusive range of missing points
}

// ReleaseBufferConfig configures a release buffer.
type ReleaseBufferConfig struct {
	MP    market.ParticipantID
	Delta sim.Time    // δ: minimum inter-batch delivery gap
	Tau   sim.Time    // τ: heartbeat period (0 disables heartbeats)
	Sched Scheduler   // global timekeeping (kernel or live adapter)
	Local clock.Local // this RB's local clock (nil = Perfect)

	// SyncOffset, when positive, enables the clock-sync-assisted mode of
	// §4.2.6 ("Trades with response time > δ"): the RB additionally
	// holds a completed batch until (generation time of its last point)
	// + SyncOffset on the *global* clock, so that — when the network
	// behaves and clocks are synchronized — batches are delivered
	// simultaneously across participants and delivery clocks align,
	// improving fairness for slow trades. Late batches are released
	// immediately, so LRTF (which only needs batching + pacing) is
	// unaffected. Requires a meaningfully synchronized Local clock;
	// with unsynchronized clocks it degrades gracefully to plain DBO
	// with extra delay.
	SyncOffset sim.Time

	// Deliver hands a completed, paced batch to the market participant.
	Deliver func(b *market.Batch)
	// DeliverLate hands a retransmitted point to the participant without
	// advancing the delivery clock (nil = drop silently).
	DeliverLate func(dp market.DataPoint)
	// Send transmits a message (tagged *market.Trade, market.Heartbeat,
	// or RetxRequest) towards the ordering buffer / CES.
	Send func(v any)
	// SendHeartbeat, when non-nil, transmits heartbeats instead of Send.
	// A heartbeat is a value; passing it through Send's any boxes it on
	// the heap, twice per τ per RB, and a transport that can carry the
	// value itself takes it here.
	SendHeartbeat func(hb market.Heartbeat)

	// Flight, if non-nil, receives deliver/submit lifecycle events.
	// Deliver events carry the measured inter-batch gap (§4.1.2) so a
	// trace is self-auditing for pacing conformance.
	Flight *flight.Recorder

	// RecycleBatches, when set, returns Batch structs to an internal
	// free list after Deliver returns, making steady-state batch
	// delivery allocation-free. Deliver must then treat the batch and
	// its Points slice as borrowed: both are reused for a later batch
	// as soon as the callback returns. A harness that retains batches
	// leaves this off.
	RecycleBatches bool
}

// ReleaseBuffer implements the RB of §4.1.2 and §5.1: it buffers market
// data until a batch is complete, releases batches to the MP while
// enforcing an inter-delivery gap of at least δ, maintains the delivery
// clock, tags outgoing trades, and emits periodic heartbeats.
//
// All its time arithmetic uses only the RB's local clock, so it needs
// no synchronization with the CES or other RBs.
type ReleaseBuffer struct {
	cfg ReleaseBufferConfig

	dc      clock.Delivery
	current *market.Batch   // batch being accumulated
	queue   []*market.Batch // completed batches awaiting paced release
	free    []*market.Batch // recycled batches (RecycleBatches only)

	lastRelease sim.Time // local time of the previous batch release
	released    bool     // at least one batch released
	pendingAt   sim.Time // global time of the scheduled release (-1 = none)
	paced       func()   // firePaced, bound once: a paced release schedules it without building a closure
	expectNext  market.PointID
	missing     map[market.PointID]bool
	stopped     bool
	epoch       int // heartbeat-chain generation; bumped by Resume

	// Counters for tests and ops.
	BatchesDelivered int
	PointsDelivered  int
	LatePoints       int
	RetxRequested    int
}

// NewReleaseBuffer validates the config and returns an RB. Call Start
// to begin heartbeats.
func NewReleaseBuffer(cfg ReleaseBufferConfig) *ReleaseBuffer {
	if cfg.Delta <= 0 {
		panic(fmt.Sprintf("core: RB delta must be positive, got %v", cfg.Delta))
	}
	if cfg.Sched == nil || cfg.Deliver == nil || cfg.Send == nil {
		panic("core: RB needs Sched, Deliver and Send")
	}
	if cfg.Local == nil {
		cfg.Local = clock.Perfect{}
	}
	rb := &ReleaseBuffer{cfg: cfg, pendingAt: -1, expectNext: 1, missing: make(map[market.PointID]bool)}
	rb.paced = rb.firePaced
	return rb
}

func (rb *ReleaseBuffer) localNow() sim.Time { return rb.cfg.Local.Now(rb.cfg.Sched.Now()) }

// Start begins the heartbeat loop (if Tau > 0). Each call starts a
// fresh chain stamped with the current epoch, so a closure left over
// from before a Stop/Resume cycle exits instead of doubling the rate.
func (rb *ReleaseBuffer) Start() {
	if rb.cfg.Tau <= 0 {
		return
	}
	epoch := rb.epoch
	var beat func()
	beat = func() {
		if rb.stopped || rb.epoch != epoch {
			return
		}
		rb.sendHeartbeat()
		after(rb.cfg.Sched, rb.cfg.Tau, beat)
	}
	after(rb.cfg.Sched, rb.cfg.Tau, beat)
}

// Stop halts the RB: heartbeats cease and incoming data, close markers
// and trades are dropped — the crash half of a crash/restart scenario
// (§4.2.1 treats a crashed RB exactly like an unbounded straggler).
func (rb *ReleaseBuffer) Stop() { rb.stopped = true }

// Resume restarts a stopped RB with its pre-crash state intact except
// for whatever arrived while it was down: the next data point exposes
// the gap, triggering retransmission, and heartbeats resume on a new
// epoch. The OB keeps the RB excluded until a fresh heartbeat shows a
// healthy RTT again.
func (rb *ReleaseBuffer) Resume() {
	if !rb.stopped {
		return
	}
	rb.stopped = false
	rb.epoch++
	rb.Start()
	// A release scheduled before the crash fired as a no-op while
	// stopped; re-arm pacing for anything still queued.
	rb.tryRelease()
}

func (rb *ReleaseBuffer) sendHeartbeat() {
	hb := market.Heartbeat{
		MP: rb.cfg.MP, DC: rb.dc.Read(rb.localNow()), Sent: rb.localNow(),
		Ctx: market.TraceCtx{Origin: market.NodeOfMP(rb.cfg.MP)},
	}
	if rb.cfg.SendHeartbeat != nil {
		rb.cfg.SendHeartbeat(hb)
		return
	}
	rb.cfg.Send(hb)
}

// Clock returns the current delivery clock reading.
func (rb *ReleaseBuffer) Clock() market.DeliveryClock { return rb.dc.Read(rb.localNow()) }

// QueueLen reports completed batches waiting on pacing (plus the one
// being accumulated, if any).
func (rb *ReleaseBuffer) QueueLen() int {
	n := len(rb.queue)
	if rb.current != nil {
		n++
	}
	return n
}

// OnData ingests one market data point from the network. Points arrive
// in order (lost points simply never arrive); a gap triggers an
// out-of-band retransmission request, and retransmitted points are
// delivered late without touching the delivery clock.
func (rb *ReleaseBuffer) OnData(dp market.DataPoint) {
	if rb.stopped {
		return
	}
	switch {
	case dp.ID < rb.expectNext:
		// Retransmission of a lost point: slow-path delivery only.
		if rb.missing[dp.ID] {
			delete(rb.missing, dp.ID)
			rb.LatePoints++
			if rb.cfg.DeliverLate != nil {
				rb.cfg.DeliverLate(dp)
			}
		}
		return
	case dp.ID > rb.expectNext:
		// Gap: everything in [expectNext, dp.ID) was lost.
		rb.RetxRequested++
		for id := rb.expectNext; id < dp.ID; id++ {
			rb.missing[id] = true
		}
		//dbo:vet-ignore allocfree loss-recovery path — boxing a retransmit request only happens on a sequence gap
		rb.cfg.Send(RetxRequest{MP: rb.cfg.MP, From: rb.expectNext, To: dp.ID - 1})
	}
	rb.expectNext = dp.ID + 1

	if rb.current != nil && dp.Batch != rb.current.ID {
		// The previous batch's Last flag (or close marker) was lost;
		// a point from a newer batch implicitly completes it.
		rb.completeCurrent()
	}
	if rb.current == nil {
		rb.current = rb.newBatch(dp.Batch)
	}
	rb.current.Points = append(rb.current.Points, dp)
	if dp.Last {
		rb.completeCurrent()
	}
}

// OnClose ingests a CES close marker for aperiodic feeds: it completes
// the named batch if it is still accumulating.
func (rb *ReleaseBuffer) OnClose(m CloseMarker) {
	if rb.stopped || rb.current == nil || rb.current.ID != m.Batch {
		return
	}
	rb.completeCurrent()
}

func (rb *ReleaseBuffer) completeCurrent() {
	if rb.current == nil || len(rb.current.Points) == 0 {
		rb.current = nil
		return
	}
	rb.queue = append(rb.queue, rb.current)
	rb.current = nil
	rb.tryRelease()
}

// tryRelease releases the head of the queue now if the pacing gap (and
// the optional synchronized-delivery target) allows, otherwise
// schedules the release for the earliest permitted instant.
func (rb *ReleaseBuffer) tryRelease() {
	if rb.pendingAt >= 0 || len(rb.queue) == 0 {
		return
	}
	var wait sim.Time
	if rb.released {
		if gap := rb.cfg.Delta - (rb.localNow() - rb.lastRelease); gap > wait {
			wait = gap
		}
	}
	if rb.cfg.SyncOffset > 0 {
		head := rb.queue[0]
		target := head.Points[len(head.Points)-1].Gen + rb.cfg.SyncOffset
		if hold := target - rb.localNow(); hold > wait {
			wait = hold
		}
	}
	if wait <= 0 {
		rb.release()
		return
	}
	rb.pendingAt = rb.cfg.Sched.Now() + wait
	rb.cfg.Sched.At(rb.pendingAt, rb.paced)
}

// firePaced is the scheduled release tryRelease armed.
func (rb *ReleaseBuffer) firePaced() {
	rb.pendingAt = -1
	if !rb.stopped {
		rb.release()
	}
}

// maxFreeBatches bounds the batch free list; a pacing backlog burst
// must not pin its high-water mark of batches forever.
const maxFreeBatches = 8

// newBatch takes a batch from the free list when recycling is on,
// reusing its Points capacity, and allocates otherwise.
func (rb *ReleaseBuffer) newBatch(id market.BatchID) *market.Batch {
	if n := len(rb.free); n > 0 {
		b := rb.free[n-1]
		rb.free[n-1] = nil
		rb.free = rb.free[:n-1]
		b.ID = id
		return b
	}
	//dbo:vet-ignore allocfree free-list miss only — RecycleBatches keeps the steady state allocation-free
	return &market.Batch{ID: id}
}

func (rb *ReleaseBuffer) release() {
	b := rb.queue[0]
	// Shift down rather than re-slice: a creeping rb.queue[1:] head
	// loses the slice's capacity and re-allocates on every backlog.
	n := copy(rb.queue, rb.queue[1:])
	rb.queue[n] = nil
	rb.queue = rb.queue[:n]
	now := rb.localNow()
	if f := rb.cfg.Flight; f.Enabled() {
		var gap sim.Time
		if rb.released {
			gap = now - rb.lastRelease // measured on the RB's own clock
		}
		var hop uint16
		if len(b.Points) > 0 {
			hop = b.Points[0].Ctx.Hop
		}
		f.Emit(flight.Event{
			At: rb.cfg.Sched.Now(), Kind: flight.KindDeliver,
			MP: rb.cfg.MP, Batch: b.ID, Point: b.LastPoint(),
			Aux: int64(gap), Aux2: int64(len(b.Points)),
			Hop: hop,
		})
	}
	// Update the clock before handing data to the MP: a trade submitted
	// during delivery must see the new batch (Figure 8: "Set on delivery").
	rb.dc.OnDeliver(now, b.LastPoint())
	rb.lastRelease = now
	rb.released = true
	rb.BatchesDelivered++
	rb.PointsDelivered += len(b.Points)
	rb.cfg.Deliver(b)
	if rb.cfg.RecycleBatches {
		b.Points = b.Points[:0]
		if len(rb.free) < maxFreeBatches {
			rb.free = append(rb.free, b)
		}
	}
	rb.tryRelease()
}

// OnTrade tags a trade submitted by the MP with the current delivery
// clock and forwards it towards the ordering buffer (Figure 8: "Tag").
func (rb *ReleaseBuffer) OnTrade(t *market.Trade) {
	if rb.stopped {
		return
	}
	t.DC = rb.dc.Read(rb.localNow())
	t.Ctx = market.TraceCtx{Origin: market.NodeOfMP(rb.cfg.MP)}
	if f := rb.cfg.Flight; f.Enabled() {
		f.Emit(flight.Event{
			At: rb.cfg.Sched.Now(), Kind: flight.KindSubmit,
			MP: t.MP, Seq: t.Seq, DC: t.DC, Point: t.Trigger,
		})
	}
	rb.cfg.Send(t)
}
