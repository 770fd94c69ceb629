package check

import (
	"container/heap"
	"fmt"
	"sort"

	"dbo/internal/clock"
	"dbo/internal/core"
	"dbo/internal/exchange"
	"dbo/internal/market"
	"dbo/internal/sim"
)

// maxViolations bounds how many violation strings a run keeps; the
// total count is still tracked so nothing fails silently.
const maxViolations = 20

type violations struct {
	seed uint64
	list []string
	n    int
}

func (v *violations) addf(oracle, format string, args ...any) {
	v.n++
	if len(v.list) >= maxViolations {
		return
	}
	v.list = append(v.list, fmt.Sprintf("[%s] seed=%d: %s", oracle, v.seed, fmt.Sprintf(format, args...)))
}

// checker observes one exchange run through the conformance hooks and
// scores it against the oracles:
//
//	oracle-1  LRTF: same-trigger trades with RT < δ finish in true
//	          response-time order, and their delivery clocks are exact
//	          (Corollary 1: ⟨trigger batch's last point, RT⟩).
//	oracle-2  per-participant monotonicity: delivered batches and
//	          reverse-path delivery-clock tags never regress.
//	oracle-3  release gate: no trade is forwarded before every
//	          non-straggler participant's watermark strictly passed it,
//	          and final positions are contiguous.
//	oracle-4  pacing and batching: inter-delivery gaps ≥ δ (local
//	          clock) and every batch spans one (1+κ)·δ window.
//	oracle-5  straggler state machine (§4.2.1): transitions alternate
//	          and each carries evidence crossing the threshold.
//	oracle-6  sharded/single equivalence (§5.2): checked by RunScenario
//	          via a control re-run, not by the checker itself.
//	oracle-7  release order: every forwarded trade is the minimum
//	          (delivery clock, participant, sequence) among the trades
//	          that reached the CES and were not yet forwarded, per a
//	          reference heap the checker keeps itself.
//
// With drifting clocks the oracles use tolerances derived from the
// scenario's maximum |drift rate| (the pacing wait is computed in local
// units but scheduled in global units, so a drifting RB may undershoot
// δ by up to rate·δ; elapsed times dilate by at most rate·RT).
type checker struct {
	s       Scenario
	window  sim.Time // (1+κ)·δ, mirrored from core.NewBatcher
	paceEps sim.Time
	rtEps   sim.Time
	locals  []clock.Local
	v       *violations

	batches []batchView
	tags    []tagView
	// lastOf[mp][point] = last point of the batch that delivered point
	// to mp — the exact delivery-clock component Corollary 1 predicts.
	lastOf []map[market.PointID]market.PointID

	wm        map[market.ParticipantID]market.DeliveryClock
	straggler map[market.ParticipantID]bool
	ever      map[market.ParticipantID]bool
	events    []core.StragglerEvent
	pending   pendingHeap

	released int
	pairs    int
}

type batchView struct {
	seen      bool
	lastID    market.BatchID
	lastPoint market.PointID
	lastLocal sim.Time
}

type tagView struct {
	seen bool
	dc   market.DeliveryClock
}

func newChecker(s Scenario) *checker {
	c := &checker{
		s:         s,
		window:    sim.Time(float64(s.Delta) * (1 + s.Kappa)),
		locals:    make([]clock.Local, s.N),
		v:         &violations{seed: s.Seed},
		batches:   make([]batchView, s.N),
		tags:      make([]tagView, s.N),
		lastOf:    make([]map[market.PointID]market.PointID, s.N),
		wm:        make(map[market.ParticipantID]market.DeliveryClock, s.N),
		straggler: make(map[market.ParticipantID]bool),
		ever:      make(map[market.ParticipantID]bool),
	}
	for i := range c.locals {
		c.locals[i] = clock.Perfect{}
		if s.DriftRates != nil {
			c.locals[i] = clock.Drifting{Offset: s.DriftOffsets[i], Rate: s.DriftRates[i]}
		}
		c.lastOf[i] = make(map[market.PointID]market.PointID)
	}
	if r := s.maxDriftRate(); r > 0 {
		c.rtEps = sim.Time(r*float64(s.RTMax)) + 2
		c.paceEps = sim.Time(2*r*float64(s.Delta)) + 2
	}
	return c
}

// install wires the checker into a config's conformance hooks.
func (c *checker) install(cfg *exchange.Config) {
	cfg.Hooks.OnBatch = c.onBatch
	cfg.Hooks.OnTag = c.onTag
	cfg.Hooks.OnUpstream = c.onUpstream
	cfg.Hooks.OnRelease = c.onRelease
	cfg.Hooks.OnStraggler = c.onStraggler
}

func (c *checker) onBatch(mp int, b *market.Batch, at sim.Time) {
	local := c.locals[mp].Now(at)
	bv := &c.batches[mp]
	if len(b.Points) == 0 {
		c.v.addf("oracle-2", "mp %d delivered empty batch %d", mp+1, b.ID)
		return
	}
	if bv.seen {
		if b.ID <= bv.lastID {
			c.v.addf("oracle-2", "mp %d batch id regressed: %d after %d", mp+1, b.ID, bv.lastID)
		}
		if gap := local - bv.lastLocal; gap < c.s.Delta-c.paceEps {
			c.v.addf("oracle-4", "mp %d inter-delivery gap %v < δ=%v (tolerance %v)",
				mp+1, gap, c.s.Delta, c.paceEps)
		}
	}
	prev := bv.lastPoint
	for _, dp := range b.Points {
		if dp.ID <= prev {
			c.v.addf("oracle-2", "mp %d point id regressed: %d after %d in batch %d", mp+1, dp.ID, prev, b.ID)
		}
		prev = dp.ID
		if dp.Batch != b.ID {
			c.v.addf("oracle-4", "mp %d batch %d contains point %d labelled for batch %d", mp+1, b.ID, dp.ID, dp.Batch)
		}
		if want := market.BatchID(dp.Gen/c.window) + 1; dp.Batch != want {
			c.v.addf("oracle-4", "point %d generated at %v assigned to batch %d, window math says %d",
				dp.ID, dp.Gen, dp.Batch, want)
		}
		c.lastOf[mp][dp.ID] = b.LastPoint()
	}
	if span := b.Points[len(b.Points)-1].Gen - b.Points[0].Gen; span >= c.window {
		c.v.addf("oracle-4", "mp %d batch %d spans %v ≥ window (1+κ)δ=%v", mp+1, b.ID, span, c.window)
	}
	bv.seen, bv.lastID, bv.lastPoint, bv.lastLocal = true, b.ID, b.LastPoint(), local
}

func (c *checker) onTag(mp int, v any) {
	var dc market.DeliveryClock
	switch m := v.(type) {
	case *market.Trade:
		dc = m.DC
	case market.Heartbeat:
		dc = m.DC
	default:
		return
	}
	tv := &c.tags[mp]
	if tv.seen && dc.Less(tv.dc) {
		c.v.addf("oracle-2", "mp %d delivery clock regressed: %v after %v", mp+1, dc, tv.dc)
	}
	tv.seen, tv.dc = true, dc
}

// pendingHeap is oracle 7's reference: the final-order keys of the
// trades handed to the ordering buffer and not yet forwarded, as a
// plain container/heap that shares nothing with core's bucketed queue.
type pendingHeap []market.Ordering

func (h pendingHeap) Len() int           { return len(h) }
func (h pendingHeap) Less(i, j int) bool { return h[i].Less(h[j]) }
func (h pendingHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *pendingHeap) Push(x any)        { *h = append(*h, x.(market.Ordering)) }
func (h *pendingHeap) Pop() any {
	old := *h
	k := old[len(old)-1]
	*h = old[:len(old)-1]
	return k
}

// onUpstream maintains shadow watermarks and the pending set from the
// raw reverse-path traffic, independently of the OB (or shard)
// implementation: a trade advances its sender's watermark and becomes
// pending, a heartbeat sets the watermark to the report.
func (c *checker) onUpstream(v any, at sim.Time) {
	switch m := v.(type) {
	case *market.Trade:
		if c.wm[m.MP].Less(m.DC) {
			c.wm[m.MP] = m.DC
		}
		heap.Push(&c.pending, market.Ordering{DC: m.DC, MP: m.MP, Seq: m.Seq})
	case market.Heartbeat:
		c.wm[m.MP] = m.DC
	}
}

func (c *checker) onStraggler(ev core.StragglerEvent) {
	c.events = append(c.events, ev)
	c.straggler[ev.MP] = ev.Straggler
	if ev.Straggler {
		c.ever[ev.MP] = true
	}
}

func (c *checker) onRelease(t *market.Trade) {
	if t.FinalPos != c.released {
		c.v.addf("oracle-3", "trade %v forwarded at position %d, want contiguous %d", t.Key(), t.FinalPos, c.released)
	}
	c.released++
	got := market.Ordering{DC: t.DC, MP: t.MP, Seq: t.Seq}
	if len(c.pending) == 0 {
		c.v.addf("oracle-7", "trade %v DC %v forwarded but never seen upstream", t.Key(), t.DC)
	} else if want := heap.Pop(&c.pending).(market.Ordering); want != got {
		c.v.addf("oracle-7", "trade %v DC %v forwarded while %+v is the minimum pending", t.Key(), t.DC, want)
	}
	for i := 0; i < c.s.N; i++ {
		p := market.ParticipantID(i + 1)
		if c.straggler[p] {
			continue
		}
		if !t.DC.Less(c.wm[p]) {
			c.v.addf("oracle-3", "trade %v DC %v released while mp %d watermark is only %v",
				t.Key(), t.DC, p, c.wm[p])
		}
	}
}

// finish runs the post-hoc oracles over the completed run.
func (c *checker) finish(r *exchange.Result) {
	c.checkLRTF(r.TradeLog)
	c.checkStragglerEvents()
	if c.s.LossRate == 0 && !c.s.Faults.Lossy() && r.Lost > 0 {
		c.v.addf("conservation", "%d trade(s) lost on a lossless network", r.Lost)
	}
	if c.s.Faults.DupRate > 0 && r.DupPackets == 0 {
		c.v.addf("fault-fired", "DupRate %v configured but no duplicates injected", c.s.Faults.DupRate)
	}
	if c.s.Faults.ReorderRate > 0 && r.ReorderedPackets == 0 {
		c.v.addf("fault-fired", "ReorderRate %v configured but nothing reordered", c.s.Faults.ReorderRate)
	}
	if c.s.Faults.Lossy() && r.WindowDrops == 0 && len(c.s.Faults.Partitions) > 0 {
		c.v.addf("fault-fired", "partition windows configured but nothing dropped")
	}
}

// checkLRTF is oracle 1. Pair comparisons require both trades well
// inside the horizon (RT + slack < δ, so pacing cannot have interleaved
// another delivery) and an identical delivered view of the trigger
// batch (packet loss can legally shift one participant's batch tail).
func (c *checker) checkLRTF(log []*market.Trade) {
	slack := c.paceEps + c.rtEps + 1
	groups := make(map[market.PointID][]*market.Trade)
	for _, t := range log {
		mp := int(t.MP) - 1
		want, ok := c.lastOf[mp][t.Trigger]
		if !ok {
			c.v.addf("oracle-1", "trade %v triggered by point %d that was never delivered to mp %d",
				t.Key(), t.Trigger, t.MP)
			continue
		}
		groups[t.Trigger] = append(groups[t.Trigger], t)
		if t.RT+slack >= c.s.Delta {
			continue // beyond the exact-fairness horizon
		}
		// Corollary 1 exactness: DC = ⟨trigger batch's last point, RT⟩.
		if t.DC.Point != want {
			c.v.addf("oracle-1", "trade %v (RT %v < δ) tagged with point %d, want its trigger batch's last point %d",
				t.Key(), t.RT, t.DC.Point, want)
		}
		if d := t.DC.Elapsed - t.RT; d > c.rtEps || d < -c.rtEps {
			c.v.addf("oracle-1", "trade %v elapsed %v deviates from true RT %v beyond drift tolerance %v",
				t.Key(), t.DC.Elapsed, t.RT, c.rtEps)
		}
	}
	// Violation messages must come out in a replay-stable order: map
	// iteration would shuffle them per run, so sort the trigger points.
	trigs := make([]market.PointID, 0, len(groups))
	for trig := range groups {
		trigs = append(trigs, trig)
	}
	sort.Slice(trigs, func(i, j int) bool { return trigs[i] < trigs[j] })
	for _, trig := range trigs {
		ts := groups[trig]
		for i := 0; i < len(ts); i++ {
			for j := i + 1; j < len(ts); j++ {
				a, b := ts[i], ts[j]
				if a.MP == b.MP || c.ever[a.MP] || c.ever[b.MP] {
					continue // stragglers forfeit the ordering guarantee
				}
				if a.RT+slack >= c.s.Delta || b.RT+slack >= c.s.Delta {
					continue
				}
				la := c.lastOf[int(a.MP)-1][a.Trigger]
				lb := c.lastOf[int(b.MP)-1][b.Trigger]
				if la != lb || a.DC.Point != la || b.DC.Point != lb {
					continue // divergent delivered views of the trigger batch
				}
				d := a.RT - b.RT
				if d < 0 {
					d = -d
				}
				if d <= 2*c.rtEps {
					continue // no strict winner within clock tolerance
				}
				fast, slow := a, b
				if b.RT < a.RT {
					fast, slow = b, a
				}
				c.pairs++
				if fast.FinalPos > slow.FinalPos {
					c.v.addf("oracle-1", "LRTF violated on trigger %d: %v (RT %v) finished at %d, behind %v (RT %v) at %d",
						trig, fast.Key(), fast.RT, fast.FinalPos, slow.Key(), slow.RT, slow.FinalPos)
				}
			}
		}
	}
}

// checkStragglerEvents is oracle 5: the exclusion/re-admission state
// machine must alternate per participant and every transition must
// carry evidence on the right side of the threshold.
func (c *checker) checkStragglerEvents() {
	if c.s.StragglerRTT == 0 {
		if len(c.events) > 0 {
			c.v.addf("oracle-5", "%d straggler transition(s) with mitigation disabled", len(c.events))
		}
		return
	}
	state := make(map[market.ParticipantID]bool)
	lastAt := make(map[market.ParticipantID]sim.Time)
	for _, ev := range c.events {
		was, seen := state[ev.MP]
		if seen && ev.Straggler == was {
			c.v.addf("oracle-5", "mp %d: repeated straggler=%v without an intervening transition", ev.MP, ev.Straggler)
		}
		if !seen && !ev.Straggler {
			c.v.addf("oracle-5", "mp %d re-admitted before ever being excluded", ev.MP)
		}
		// The threshold in force must be legal: exactly the static
		// constant without a policy, or inside [Floor, cap] with one
		// (the cap is always the static StragglerRTT).
		if c.s.Adaptive == nil {
			if ev.Threshold != c.s.StragglerRTT {
				c.v.addf("oracle-5", "mp %d transition carries threshold %v, static config says %v",
					ev.MP, ev.Threshold, c.s.StragglerRTT)
			}
		} else if ev.Threshold < c.s.Adaptive.Floor || ev.Threshold > c.s.StragglerRTT {
			c.v.addf("oracle-5", "mp %d adaptive threshold %v outside [%v, %v]",
				ev.MP, ev.Threshold, c.s.Adaptive.Floor, c.s.StragglerRTT)
		}
		// Evidence must sit on the right side of the threshold in force.
		if ev.Straggler && ev.RTT <= ev.Threshold {
			c.v.addf("oracle-5", "mp %d excluded with evidence %v ≤ threshold %v", ev.MP, ev.RTT, ev.Threshold)
		}
		if !ev.Straggler && (ev.Timeout || ev.RTT > ev.Threshold) {
			c.v.addf("oracle-5", "mp %d re-admitted with RTT %v > threshold %v (timeout=%v)",
				ev.MP, ev.RTT, ev.Threshold, ev.Timeout)
		}
		if at, ok := lastAt[ev.MP]; ok && ev.At < at {
			c.v.addf("oracle-5", "mp %d transition time regressed: %v after %v", ev.MP, ev.At, at)
		}
		state[ev.MP] = ev.Straggler
		lastAt[ev.MP] = ev.At
	}
}
