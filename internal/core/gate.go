package core

import (
	"fmt"

	"dbo/internal/flight"
	"dbo/internal/market"
	"dbo/internal/sim"
)

// gateConfig is what the watermark gate needs from its owner's config;
// the fields act as documented on OrderingBufferConfig.
type gateConfig struct {
	Sched        Scheduler
	StragglerRTT sim.Time
	Threshold    ThresholdPolicy
	GenTime      func(p market.PointID) sim.Time
	OnStraggler  func(ev StragglerEvent)
	Flight       *flight.Recorder
}

// gate is the watermark gate of §4.1.3 with the straggler exclusion of
// §4.2.1: per-participant watermarks, liveness and RTT estimates, and
// the minimum watermark over the participants not currently excluded.
// An OrderingBuffer releases queued trades strictly below that minimum;
// an OBShard (§5.2) forwards the minimum itself whenever it changes.
type gate struct {
	cfg   gateConfig
	state map[market.ParticipantID]*mpState
	// dense is a direct-index fast path for the per-message state
	// lookup, built when the participant id range is compact (the
	// common case: MPs 1..N, or shard ids −1..−N). Nil for sparse id
	// spaces, where the map is used instead.
	dense     []*mpState
	denseBase int
	// order holds the same states in config order: every scan that can
	// influence externally visible behaviour (the minimum, straggler
	// sweeps, event emission) walks this slice, never the map, so a
	// seeded run's observable event sequence is deterministic.
	order []*mpState
	start sim.Time

	// min caches the minimum contribution (MaxDeliveryClock when every
	// participant is excluded) and minN how many participants sit on
	// it. update maintains both incrementally — only a change that can
	// *raise* the minimum (its last holder moved up or dropped out)
	// sets minDirty for a lazy O(participants) rescan, so advancing a
	// non-minimum watermark costs O(1).
	min      market.DeliveryClock
	minN     int
	minDirty bool

	// StragglerEvents counts activations of straggler mitigation.
	StragglerEvents int
}

type mpState struct {
	id        market.ParticipantID
	wm        market.DeliveryClock
	lastHB    sim.Time // global arrival time of the latest heartbeat
	hasHB     bool
	straggler bool
	rtt       sim.Time
}

// StragglerEvent is one straggler state transition (§4.2.1): a
// participant was excluded from the release gate or re-admitted to it.
type StragglerEvent struct {
	MP        market.ParticipantID
	Straggler bool     // true = excluded, false = re-admitted
	RTT       sim.Time // measured RTT; for Timeout exclusions, the heartbeat silence
	Threshold sim.Time // exclusion threshold in force at the transition
	Timeout   bool     // exclusion caused by heartbeat silence, not a measured RTT
	At        sim.Time // global time of the transition
}

// newGate validates the straggler settings and builds a gate over ids.
func newGate(ids []market.ParticipantID, cfg gateConfig) gate {
	if len(ids) == 0 {
		panic("core: watermark gate needs at least one participant")
	}
	if cfg.StragglerRTT > 0 && cfg.GenTime == nil {
		panic("core: straggler mitigation needs GenTime")
	}
	if cfg.Threshold != nil && cfg.StragglerRTT <= 0 {
		panic("core: adaptive threshold needs StragglerRTT > 0 as its cap")
	}
	g := gate{
		cfg:      cfg,
		state:    make(map[market.ParticipantID]*mpState, len(ids)),
		start:    cfg.Sched.Now(),
		minDirty: true,
	}
	lo, hi := int(ids[0]), int(ids[0])
	for _, p := range ids {
		if _, dup := g.state[p]; dup {
			panic(fmt.Sprintf("core: duplicate participant %d", p))
		}
		st := &mpState{id: p}
		g.state[p] = st
		g.order = append(g.order, st)
		lo, hi = min(lo, int(p)), max(hi, int(p))
	}
	if span := hi - lo + 1; span <= 4*len(ids)+64 {
		g.dense = make([]*mpState, span)
		g.denseBase = lo
		for _, st := range g.order {
			g.dense[int(st.id)-lo] = st
		}
	}
	return g
}

// lookup resolves a participant's state (nil if unknown).
func (g *gate) lookup(id market.ParticipantID) *mpState {
	if g.dense != nil {
		if i := int(id) - g.denseBase; i >= 0 && i < len(g.dense) {
			return g.dense[i]
		}
		return nil
	}
	return g.state[id]
}

// advance raises a participant's watermark to the tag of a trade it
// sent: in-order delivery plus clock monotonicity mean no earlier clock
// can follow from that participant. Unknown senders gate nothing.
func (g *gate) advance(id market.ParticipantID, dc market.DeliveryClock) {
	if st := g.lookup(id); st != nil && st.wm.Less(dc) {
		g.setWatermark(st, dc)
	}
}

// report applies a heartbeat: the sender's watermark, its liveness and,
// with straggler mitigation on, its RTT estimate and exclusion state.
// With assign the watermark becomes the reported clock even when that
// is lower — what a master OB needs from a shard, whose minimum legally
// regresses when a straggler member is re-admitted and must then be
// waited for again; without it the watermark only rises, which is all a
// release buffer's monotone clock can ask for. It reports whether the
// sender is a participant of this gate.
func (g *gate) report(h market.Heartbeat, assign bool) bool {
	st := g.lookup(h.MP)
	if st == nil {
		return false // unknown participant; ignore rather than corrupt state
	}
	now := g.cfg.Sched.Now()
	if f := g.cfg.Flight; f.Enabled() {
		var staleness sim.Time
		if st.hasHB {
			staleness = now - st.lastHB
		}
		f.Emit(flight.Event{
			At: now, Kind: flight.KindWatermark,
			MP: h.MP, DC: h.DC, Aux: int64(staleness), Aux2: int64(h.Origin),
			Hop: h.Ctx.Hop,
		})
	}
	if assign || st.wm.Less(h.DC) {
		g.setWatermark(st, h.DC)
	}
	st.lastHB = now
	st.hasHB = true
	if g.cfg.StragglerRTT > 0 && h.DC.HasDelivered() {
		// RTT ≈ (delivery latency of the latest point) + (heartbeat
		// network latency): heartbeat arrival − G(point) − elapsed.
		st.rtt = now - g.cfg.GenTime(h.DC.Point) - h.DC.Elapsed
		if g.cfg.Threshold != nil {
			g.cfg.Threshold.Observe(h.MP, st.rtt, now)
		}
		thr := g.threshold(now)
		g.setStraggler(st, st.rtt > thr, st.rtt, thr, false)
	}
	return true
}

// sweep excludes every participant whose heartbeats have been silent
// for longer than the threshold, calling excluded after each new
// exclusion (the minimum may have risen past work that was waiting on
// that participant alone).
func (g *gate) sweep(excluded func(market.ParticipantID)) {
	if g.cfg.StragglerRTT <= 0 {
		return
	}
	now := g.cfg.Sched.Now()
	thr := g.threshold(now)
	for _, st := range g.order {
		last := st.lastHB
		if !st.hasHB {
			last = g.start
		}
		if now-last > thr && g.setStraggler(st, true, now-last, thr, true) {
			excluded(st.id)
		}
	}
}

// threshold resolves the exclusion threshold in force: the adaptive
// policy's answer when one is configured, the static constant otherwise.
func (g *gate) threshold(now sim.Time) sim.Time {
	if g.cfg.Threshold != nil {
		return g.cfg.Threshold.Threshold(now)
	}
	return g.cfg.StragglerRTT
}

// setStraggler updates a participant's exclusion state, reporting
// whether the participant was newly excluded.
func (g *gate) setStraggler(st *mpState, v bool, rtt, thr sim.Time, timeout bool) bool {
	if v == st.straggler {
		return false
	}
	if v {
		g.StragglerEvents++
	}
	now := g.cfg.Sched.Now()
	if g.cfg.OnStraggler != nil {
		g.cfg.OnStraggler(StragglerEvent{
			MP: st.id, Straggler: v, RTT: rtt, Threshold: thr, Timeout: timeout, At: now,
		})
	}
	if f := g.cfg.Flight; f.Enabled() {
		var bits int64
		if v {
			bits |= flight.StragglerExcluded
		}
		if timeout {
			bits |= flight.StragglerTimeout
		}
		f.Emit(flight.Event{
			At: now, Kind: flight.KindStraggler,
			MP: st.id, Aux: int64(rtt), Aux2: bits,
		})
	}
	old := contribution(st)
	st.straggler = v
	g.update(old, contribution(st))
	return v
}

func (g *gate) setWatermark(st *mpState, dc market.DeliveryClock) {
	old := contribution(st)
	st.wm = dc
	g.update(old, contribution(st))
}

// contribution is a participant's effective contribution to the
// minimum: its watermark, or MaxDeliveryClock while excluded.
func contribution(st *mpState) market.DeliveryClock {
	if st.straggler {
		return market.MaxDeliveryClock
	}
	return st.wm
}

// update maintains the cached minimum across one participant's
// contribution change old→new. While the cache is valid, old ≥ min for
// every participant, so the cases below cover everything: a
// contribution dropping below the minimum *is* the new minimum; one
// moving onto or off the minimum adjusts its multiplicity, and only
// when the last holder leaves can the minimum rise (rescan lazily);
// any other move cannot touch it. Tracking the multiplicity matters:
// in steady state every participant sits at the same watermark, and
// without it each advance off the shared minimum would look like a
// potential rise.
func (g *gate) update(old, new market.DeliveryClock) {
	if g.minDirty || old == new {
		return
	}
	if new.Less(g.min) {
		g.min, g.minN = new, 1
		return
	}
	if new == g.min {
		g.minN++
	}
	if old == g.min {
		g.minN--
		if g.minN == 0 {
			g.minDirty = true
		}
	}
}

// minimum returns the minimum watermark over non-excluded participants
// (MaxDeliveryClock when all are excluded).
func (g *gate) minimum() market.DeliveryClock {
	if g.minDirty {
		g.rescan()
	}
	return g.min
}

// rescan rebuilds the cached minimum and its multiplicity.
func (g *gate) rescan() {
	g.min, g.minN = market.MaxDeliveryClock, 0
	for _, st := range g.order {
		c := contribution(st)
		switch {
		case c.Less(g.min):
			g.min, g.minN = c, 1
		case c == g.min:
			g.minN++
		}
	}
	g.minDirty = false
}
