// Package audit is the live fairness audit plane: an online,
// bounded-memory monitor that watches the conformance stream of a
// running deployment — batch deliveries and matched trades — and
// continuously checks the paper's three observable guarantees:
//
//   - fairness (§6.1): every competing pair of executed trades (same
//     trigger point, different participants, strictly different
//     response times) must execute faster-first;
//   - δ-gap pacing (§4.1.2): consecutive batch deliveries to one
//     participant must be at least δ apart;
//   - batch atomicity (§4.1.2): every participant must see the same
//     composition (first point, last point, count) for a given batch.
//
// Unlike internal/fairness, which holds every outcome until the run
// ends, the auditor's state is bounded by Config.Window: race groups
// and batch signatures are evicted FIFO, so it can run unattended on a
// 24/5 exchange node. Violations are surfaced three ways: counters and
// gauges on a metrics.Registry (Register), a JSON snapshot endpoint
// (Handler, mounted at /debug/audit), and an optional callback
// (Config.OnViolation) that chaos harnesses use to assert live
// detection. The callback always fires after the auditor's lock is
// released — user code never runs under it.
//
// The auditor never reads a clock: callers stamp observations with
// their scheduler's time, so seeded simulations audit deterministically.
package audit

import (
	"fmt"
	"sync"

	"dbo/internal/market"
	"dbo/internal/metrics"
	"dbo/internal/sim"
)

// Kind classifies a violation.
type Kind uint8

const (
	// Unfair: a competing pair executed slower-first (§6.1).
	Unfair Kind = iota + 1
	// Pacing: consecutive deliveries to one MP closer than δ (§4.1.2).
	Pacing
	// Atomicity: two MPs saw different compositions of one batch.
	Atomicity
)

func (k Kind) String() string {
	switch k {
	case Unfair:
		return "unfair"
	case Pacing:
		return "pacing"
	case Atomicity:
		return "atomicity"
	}
	return "unknown"
}

// Violation is one detected guarantee break. Fields beyond Kind, At
// and MP are kind-specific.
type Violation struct {
	Kind Kind
	At   sim.Time             // observation time (scheduler clock)
	MP   market.ParticipantID // participant the violation is charged to

	// Unfair: the race and both sides. Faster is the trade with the
	// lower response time (charged to MP above); Slower executed first.
	Trigger   market.PointID
	FasterSeq market.TradeSeq
	SlowerMP  market.ParticipantID
	SlowerSeq market.TradeSeq
	FasterRT  sim.Time
	SlowerRT  sim.Time
	FasterPos int
	SlowerPos int

	// Pacing: the measured inter-delivery gap (< δ − slack).
	Gap   sim.Time
	Batch market.BatchID // Pacing: the late batch; Atomicity: the batch
}

func (v Violation) String() string {
	switch v.Kind {
	case Unfair:
		return fmt.Sprintf("unfair: trigger %d: (%d,%d) rt=%v pos=%d beaten by (%d,%d) rt=%v pos=%d",
			v.Trigger, v.MP, v.FasterSeq, v.FasterRT, v.FasterPos,
			v.SlowerMP, v.SlowerSeq, v.SlowerRT, v.SlowerPos)
	case Pacing:
		return fmt.Sprintf("pacing: mp %d batch %d gap %v < δ", v.MP, v.Batch, v.Gap)
	case Atomicity:
		return fmt.Sprintf("atomicity: mp %d batch %d composition differs", v.MP, v.Batch)
	}
	return "unknown violation"
}

// Config parameterizes an Auditor. The zero value of every field but
// Delta is usable.
type Config struct {
	// Delta is the pacing gap δ the δ-gap check enforces; 0 disables
	// the pacing check (fairness and atomicity still run).
	Delta sim.Time
	// Slack is subtracted from δ before flagging a gap, absorbing the
	// skew between the RB's pacing clock and the observation clock
	// (drifting local clocks, §4.2.4). Default 0: exact.
	Slack sim.Time
	// Warmup: trades submitted before this are not scored for fairness,
	// mirroring the evaluation methodology (§6.1). Default 0.
	Warmup sim.Time
	// Window bounds memory: at most this many open race groups and
	// batch signatures are retained, evicted FIFO. Default 4096.
	Window int
	// Recent bounds the violation ring served by Handler. Default 16.
	Recent int
	// OnViolation, when non-nil, is invoked for every violation after
	// the auditor's lock is released (safe to call back into the
	// auditor or a registry).
	OnViolation func(Violation)
}

// raceGroup holds the executed trades competing on one trigger point.
type raceGroup struct {
	outs []outcome
}

type outcome struct {
	mp  market.ParticipantID
	seq market.TradeSeq
	rt  sim.Time
	pos int
}

// batchSig is the composition fingerprint of a batch as first seen.
type batchSig struct {
	first, last market.PointID
	count       int
}

// Auditor is the online monitor. Safe for concurrent use; in the
// simulator it is driven single-threaded through the kernel, on a live
// node through the event loop.
type Auditor struct {
	cfg Config

	mu         sync.Mutex
	races      map[market.PointID]*raceGroup
	raceOrder  []market.PointID // FIFO eviction order
	batches    map[market.BatchID]batchSig
	batchOrder []market.BatchID
	last       map[market.ParticipantID]sim.Time           // previous delivery per MP
	gaps       map[market.ParticipantID]*metrics.Histogram // per-MP delivery gaps
	recent     []Violation                                 // ring, recentN most recent
	recentNext int

	deliveries int64
	forwards   int64
	pairs      int64
	unfair     int64
	pacingViol int64
	atomViol   int64
	evicted    int64

	// gapHist is the registry-wide delivery-gap histogram, cached at
	// Register time so Observe never runs under the registry lock.
	gapHist *metrics.Histogram
}

// New returns an auditor with cfg's defaults applied.
func New(cfg Config) *Auditor {
	if cfg.Window <= 0 {
		cfg.Window = 4096
	}
	if cfg.Recent <= 0 {
		cfg.Recent = 16
	}
	return &Auditor{
		cfg:     cfg,
		races:   make(map[market.PointID]*raceGroup),
		batches: make(map[market.BatchID]batchSig),
		last:    make(map[market.ParticipantID]sim.Time),
		gaps:    make(map[market.ParticipantID]*metrics.Histogram),
		recent:  make([]Violation, 0, cfg.Recent),
	}
}

// OnDeliver observes a batch delivery to mp at time at (scheduler
// clock). It runs the δ-gap and batch-atomicity checks. The batch is
// borrowed for the call (a release buffer may recycle it): only its id
// and a value signature of its points are kept.
func (a *Auditor) OnDeliver(mp market.ParticipantID, b *market.Batch, at sim.Time) {
	if a == nil {
		return
	}
	var fired []Violation
	var gap sim.Time = -1
	a.mu.Lock()
	a.deliveries++
	if prev, ok := a.last[mp]; ok {
		gap = at - prev
		if a.cfg.Delta > 0 && gap+a.cfg.Slack < a.cfg.Delta {
			a.pacingViol++
			fired = append(fired, a.noteLocked(Violation{
				Kind: Pacing, At: at, MP: mp, Gap: gap, Batch: b.ID,
			}))
		}
	}
	a.last[mp] = at
	hist := a.gaps[mp]
	if hist == nil && gap >= 0 {
		hist = metrics.NewHistogram()
		a.gaps[mp] = hist
	}
	sig := batchSig{count: len(b.Points)}
	if sig.count > 0 {
		sig.first, sig.last = b.Points[0].ID, b.LastPoint()
	}
	if seen, ok := a.batches[b.ID]; ok {
		if seen != sig {
			a.atomViol++
			fired = append(fired, a.noteLocked(Violation{
				Kind: Atomicity, At: at, MP: mp, Batch: b.ID,
			}))
		}
	} else {
		a.batches[b.ID] = sig
		a.batchOrder = append(a.batchOrder, b.ID)
		if len(a.batchOrder) > a.cfg.Window {
			delete(a.batches, a.batchOrder[0])
			a.batchOrder = a.batchOrder[1:]
			a.evicted++
		}
	}
	global := a.gapHist
	a.mu.Unlock()

	if gap >= 0 {
		hist.Observe(int64(gap))
		if global != nil {
			global.Observe(int64(gap))
		}
	}
	a.fire(fired)
}

// OnForward observes a trade's execution (final position fixed) at
// time at. It scores the trade against every executed competitor on
// the same trigger point.
func (a *Auditor) OnForward(t *market.Trade, at sim.Time) {
	if a == nil {
		return
	}
	if t.Submitted < a.cfg.Warmup {
		a.mu.Lock()
		a.forwards++
		a.mu.Unlock()
		return
	}
	var fired []Violation
	a.mu.Lock()
	a.forwards++
	g := a.races[t.Trigger]
	if g == nil {
		g = &raceGroup{}
		a.races[t.Trigger] = g
		a.raceOrder = append(a.raceOrder, t.Trigger)
		if len(a.raceOrder) > a.cfg.Window {
			delete(a.races, a.raceOrder[0])
			a.raceOrder = a.raceOrder[1:]
			a.evicted++
		}
	}
	o := outcome{mp: t.MP, seq: t.Seq, rt: t.RT, pos: t.FinalPos}
	for _, p := range g.outs {
		if p.mp == o.mp || p.rt == o.rt {
			continue // same participant or no ground-truth winner
		}
		fast, slow := o, p
		if p.rt < o.rt {
			fast, slow = p, o
		}
		a.pairs++
		if fast.pos < slow.pos {
			continue
		}
		a.unfair++
		fired = append(fired, a.noteLocked(Violation{
			Kind: Unfair, At: at, MP: fast.mp, Trigger: t.Trigger,
			FasterSeq: fast.seq, FasterRT: fast.rt, FasterPos: fast.pos,
			SlowerMP: slow.mp, SlowerSeq: slow.seq, SlowerRT: slow.rt, SlowerPos: slow.pos,
		}))
	}
	g.outs = append(g.outs, o)
	a.mu.Unlock()
	a.fire(fired)
}

// noteLocked records v in the recent ring (caller holds a.mu) and
// returns it for post-unlock callback dispatch.
func (a *Auditor) noteLocked(v Violation) Violation {
	if len(a.recent) < a.cfg.Recent {
		a.recent = append(a.recent, v)
	} else {
		a.recent[a.recentNext] = v
	}
	a.recentNext = (a.recentNext + 1) % a.cfg.Recent
	return v
}

// fire dispatches violations to the callback, outside the lock.
func (a *Auditor) fire(vs []Violation) {
	if a.cfg.OnViolation == nil {
		return
	}
	for _, v := range vs {
		a.cfg.OnViolation(v)
	}
}

// Stats is a point-in-time summary of the auditor.
type Stats struct {
	Deliveries       int64 `json:"deliveries"`
	Forwards         int64 `json:"forwards"`
	Pairs            int64 `json:"pairs"`
	UnfairPairs      int64 `json:"unfair_pairs"`
	PacingViolations int64 `json:"pacing_violations"`
	AtomicityBreaks  int64 `json:"atomicity_breaks"`
	OpenRaces        int64 `json:"open_races"`
	Evicted          int64 `json:"evicted"`
	// Fairness is the §6.1 metric over scored pairs (1 when no pair
	// has been scored yet).
	Fairness float64 `json:"fairness"`
}

// Violations reports the total violation count across all kinds.
func (s Stats) Violations() int64 {
	return s.UnfairPairs + s.PacingViolations + s.AtomicityBreaks
}

// Stats snapshots the counters.
func (a *Auditor) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.statsLocked()
}

func (a *Auditor) statsLocked() Stats {
	s := Stats{
		Deliveries: a.deliveries, Forwards: a.forwards,
		Pairs: a.pairs, UnfairPairs: a.unfair,
		PacingViolations: a.pacingViol, AtomicityBreaks: a.atomViol,
		OpenRaces: int64(len(a.races)), Evicted: a.evicted,
		Fairness: 1,
	}
	if a.pairs > 0 {
		s.Fairness = float64(a.pairs-a.unfair) / float64(a.pairs)
	}
	return s
}

// Recent returns the most recent violations, oldest first.
func (a *Auditor) Recent() []Violation {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Violation, 0, len(a.recent))
	if len(a.recent) < a.cfg.Recent {
		return append(out, a.recent...)
	}
	for i := 0; i < a.cfg.Recent; i++ {
		out = append(out, a.recent[(a.recentNext+i)%a.cfg.Recent])
	}
	return out
}

// GapSnapshot returns the merged delivery-gap distribution across all
// participants (metrics.HistSnapshot.Merge), plus the participant ids
// observed, sorted.
func (a *Auditor) GapSnapshot() (metrics.HistSnapshot, []market.ParticipantID) {
	a.mu.Lock()
	hists := make([]*metrics.Histogram, 0, len(a.gaps))
	mps := make([]market.ParticipantID, 0, len(a.gaps))
	for mp, h := range a.gaps {
		mps = append(mps, mp)
		hists = append(hists, h)
	}
	a.mu.Unlock()
	// Sort ids (and keep hists irrelevant to order: merge is commutative).
	for i := 1; i < len(mps); i++ {
		for j := i; j > 0 && mps[j] < mps[j-1]; j-- {
			mps[j], mps[j-1] = mps[j-1], mps[j]
		}
	}
	var merged metrics.HistSnapshot
	for _, h := range hists {
		merged = merged.Merge(h.Snapshot())
	}
	return merged, mps
}

// Register exposes the auditor on a metrics registry:
//
//	audit_fairness_ppm      gauge, §6.1 fairness in parts per million
//	audit_pairs             scored competing pairs
//	audit_unfair_pairs      pairs executed slower-first
//	audit_pacing_violations δ-gap breaks
//	audit_atomicity_breaks  batch-composition mismatches
//	audit_open_races        live race groups (bounded by Window)
//	audit_evicted           race groups / batch signatures evicted
//	audit_deliveries        batch deliveries observed
//	audit_forwards          trade executions observed
//	audit_delivery_gap_ns   histogram of inter-delivery gaps
//
// All Func metrics take the auditor's lock when scraped; the registry
// runs them outside its own lock (PR 1 re-entrancy contract), so the
// lock order is always auditor-after-registry, never nested.
func (a *Auditor) Register(r *metrics.Registry) {
	a.mu.Lock()
	a.gapHist = r.Histogram("audit_delivery_gap_ns")
	a.mu.Unlock()
	stat := func(pick func(Stats) int64) func() int64 {
		return func() int64 { return pick(a.Stats()) }
	}
	r.Func("audit_fairness_ppm", stat(func(s Stats) int64 { return int64(s.Fairness * 1e6) }))
	r.Func("audit_pairs", stat(func(s Stats) int64 { return s.Pairs }))
	r.Func("audit_unfair_pairs", stat(func(s Stats) int64 { return s.UnfairPairs }))
	r.Func("audit_pacing_violations", stat(func(s Stats) int64 { return s.PacingViolations }))
	r.Func("audit_atomicity_breaks", stat(func(s Stats) int64 { return s.AtomicityBreaks }))
	r.Func("audit_open_races", stat(func(s Stats) int64 { return s.OpenRaces }))
	r.Func("audit_evicted", stat(func(s Stats) int64 { return s.Evicted }))
	r.Func("audit_deliveries", stat(func(s Stats) int64 { return s.Deliveries }))
	r.Func("audit_forwards", stat(func(s Stats) int64 { return s.Forwards }))
}
