package core

import (
	"dbo/internal/flight"
	"dbo/internal/market"
	"dbo/internal/sim"
)

// OrderingBufferConfig configures an ordering buffer.
type OrderingBufferConfig struct {
	// Participants whose watermarks gate trade release. For a sharded
	// deployment these are shard ids instead of MP ids (§5.2).
	Participants []market.ParticipantID

	// Forward receives trades in final DBO order; the harness stamps
	// F(i,a) and feeds the matching engine.
	Forward func(t *market.Trade)

	Sched Scheduler

	// StragglerRTT enables straggler mitigation (§4.2.1) when positive:
	// a participant whose tracked round trip exceeds the threshold — or
	// from whom no heartbeat has arrived for that long — is excluded
	// from the release gate until its latency recovers.
	StragglerRTT sim.Time

	// Threshold, if non-nil, supplies an adaptive threshold in place of
	// the StragglerRTT constant (which remains the policy's hard cap
	// and the differential baseline). Mitigation is still enabled by
	// StragglerRTT > 0; the policy only moves the comparison value. In
	// a sharded deployment every shard must share one instance.
	Threshold ThresholdPolicy

	// GenTime maps a data point to its generation time at the CES; the
	// OB is colocated with the CES (§5.2), so this is local knowledge.
	// Required for RTT tracking when StragglerRTT > 0.
	GenTime func(p market.PointID) sim.Time

	// OnStraggler, if set, observes every straggler state transition
	// (exclusion and re-admission) with the evidence that justified it.
	// Conformance harnesses use it to check §4.2.1 state-machine legality.
	OnStraggler func(ev StragglerEvent)

	// Flight, if non-nil, receives enqueue/watermark/release/straggler
	// lifecycle events. Release events carry hold-time attribution: the
	// participant whose watermark advance (or straggler exclusion)
	// finally let a held trade through the gate.
	Flight *flight.Recorder
}

// OrderingBuffer implements §4.1.3: a priority queue of delivery-clock-
// tagged trades behind a watermark gate — a trade is released only once
// every (non-straggler) participant's watermark strictly exceeds its
// clock.
type OrderingBuffer struct {
	cfg OrderingBufferConfig
	gate
	queue bucketQueue

	Forwarded int
}

// NewOrderingBuffer validates the config and returns an empty OB.
func NewOrderingBuffer(cfg OrderingBufferConfig) *OrderingBuffer {
	if cfg.Forward == nil || cfg.Sched == nil {
		panic("core: OB needs Forward and Sched")
	}
	return &OrderingBuffer{cfg: cfg, gate: newGate(cfg.Participants, gateConfig{
		Sched:        cfg.Sched,
		StragglerRTT: cfg.StragglerRTT,
		Threshold:    cfg.Threshold,
		GenTime:      cfg.GenTime,
		OnStraggler:  cfg.OnStraggler,
		Flight:       cfg.Flight,
	})}
}

// OnTrade ingests a tagged trade, which also advances its sender's
// watermark.
func (ob *OrderingBuffer) OnTrade(t *market.Trade) {
	t.Enqueued = ob.cfg.Sched.Now()
	ob.queue.Push(t)
	ob.advance(t.MP, t.DC)
	if f := ob.cfg.Flight; f.Enabled() {
		f.Emit(flight.Event{
			At: t.Enqueued, Kind: flight.KindEnqueue,
			MP: t.MP, Seq: t.Seq, DC: t.DC, Point: t.Trigger,
			Hop: t.Ctx.Hop,
		})
	}
	ob.drain(t.MP)
}

// OnHeartbeat ingests a heartbeat: it sets the sender's watermark to the
// reported clock, refreshes its liveness, and updates the straggler
// estimate. The watermark is the *latest* report, not the maximum:
// release buffers only ever report monotone clocks over their in-order
// channel, and a shard participant's minimum may regress (see
// gate.report).
func (ob *OrderingBuffer) OnHeartbeat(h market.Heartbeat) {
	if !ob.report(h, true) {
		return
	}
	// Attribute releases to the member that moved a shard minimum when
	// the heartbeat says which one it was (§5.2), else to the sender.
	cause := h.MP
	if h.Origin != 0 {
		cause = h.Origin
	}
	ob.drain(cause)
}

// Tick performs periodic maintenance: heartbeat-timeout straggler
// detection and a drain pass. Harnesses call it every τ (or on any
// timer); it is idempotent.
func (ob *OrderingBuffer) Tick() {
	// Excluding a participant shrinks the gate; any trade released by
	// that drain was waiting on the excluded participant's watermark.
	ob.sweep(ob.drain)
	// A drain with no state change never releases anything; cause 0 is
	// the "nothing was waiting on anyone" marker and is asserted on by
	// flight.UnattributedHeld.
	ob.drain(0)
}

// Queued reports trades currently held.
func (ob *OrderingBuffer) Queued() int { return ob.queue.Len() }

// Stragglers lists participants currently excluded from the gate, in
// config order.
func (ob *OrderingBuffer) Stragglers() []market.ParticipantID {
	var out []market.ParticipantID
	for _, st := range ob.order {
		if st.straggler {
			out = append(out, st.id)
		}
	}
	return out
}

// Watermark returns the current watermark of a participant.
func (ob *OrderingBuffer) Watermark(p market.ParticipantID) (market.DeliveryClock, bool) {
	st := ob.lookup(p)
	if st == nil {
		return market.DeliveryClock{}, false
	}
	return st.wm, true
}

// drain forwards every queued trade whose clock is strictly below the
// gate minimum, so no in-flight trade can still order ahead of (or tie
// with) it. cause is the participant whose state change triggered this
// pass (trade/heartbeat sender, shard origin, or excluded straggler): a
// trade that was already waiting before this pass and releases now was,
// by elimination, gated on cause's watermark — only cause's gate state
// changed — so cause is exactly "the last watermark to pass" and becomes
// the trade's hold attribution. Trades the triggering event itself
// enqueued release with zero hold and no blocker.
func (ob *OrderingBuffer) drain(cause market.ParticipantID) {
	for {
		t := ob.queue.Peek()
		if t == nil || !t.DC.Less(ob.minimum()) {
			return
		}
		ob.queue.Pop()
		ob.forward(t, cause)
	}
}

// forward stamps and emits one released trade.
func (ob *OrderingBuffer) forward(t *market.Trade, cause market.ParticipantID) {
	now := ob.cfg.Sched.Now()
	t.Forwarded = now
	t.FinalPos = ob.Forwarded
	hold := now - t.Enqueued
	if hold > 0 {
		t.Blocker = cause
	}
	if f := ob.cfg.Flight; f.Enabled() {
		f.Emit(flight.Event{
			At: now, Kind: flight.KindRelease,
			MP: t.MP, Seq: t.Seq, DC: t.DC,
			Aux: int64(hold), Aux2: int64(t.Blocker),
			Hop: t.Ctx.Hop,
		})
	}
	ob.Forwarded++
	ob.cfg.Forward(t)
}

// Crash models an OB failure: all queued trades are dropped (the system
// incurs unfairness, §4.2.1 "OB failure"). It returns the lost trades
// in queue (delivery-clock) order.
func (ob *OrderingBuffer) Crash() []*market.Trade {
	return ob.queue.Drain()
}
