// Package netsim models the cloud datacenter network between the CES
// and the market participants on top of the discrete-event kernel.
//
// The model matches the paper's network assumptions (§3):
//
//   - latency is unpredictable and effectively unbounded (driven by
//     trace.Trace samples, which include heavy-tail spikes),
//   - paths are not equidistant (each direction of each participant gets
//     its own trace slice plus an optional static skew),
//   - packets that are not dropped are delivered in order (FIFO is
//     enforced per link: a message never overtakes an earlier one), and
//   - losses are possible and handled out of band by the endpoints.
//
// A message in flight is one value-typed kernel event plus a slot in
// its link's slab; sending allocates nothing once the slab has grown to
// the link's peak in-flight count.
package netsim

import (
	"math/rand/v2"

	"dbo/internal/sim"
	"dbo/internal/trace"
)

// LatencyFunc returns the one-way latency a message injected at time t
// experiences on a link.
type LatencyFunc func(t sim.Time) sim.Time

// Constant returns a LatencyFunc with a fixed latency.
func Constant(d sim.Time) LatencyFunc { return func(sim.Time) sim.Time { return d } }

// FromTrace returns a LatencyFunc reading one-way latencies from a
// trace (half the trace's RTT samples, per §6.4).
func FromTrace(tr *trace.Trace) LatencyFunc { return tr.OneWayAt }

// Link is a unidirectional, in-order, lossy channel. Send schedules the
// receiver callback on the kernel after the link's current latency,
// clamped so delivery order matches send order. Fault injection can
// additionally duplicate, reorder, window-drop (partition), or elevate
// (latency attack) traffic; every fault is driven by its own seeded rng
// or a deterministic time window, so chaos runs replay exactly.
//
// The link is the sim.Handler of its own deliveries: a message in flight
// is parked in a slot of the link's slab and the kernel event carries
// the slot index. A slab rather than a ring, because reordered messages
// and duplicate copies arrive out of send order.
type Link struct {
	k       *sim.Kernel
	latency LatencyFunc
	recv    func(v any)

	// In-flight payloads, one slot per scheduled delivery (a duplicate
	// copy parks in its own slot).
	inflight sim.Slab[any]

	lossRate  float64
	rng       *rand.Rand
	dropNext  int
	lastArrAt sim.Time

	// Partition windows: a send inside any [from, to) is dropped.
	partitions []timeWindow

	// Latency elevations: extra one-way delay inside [from, to).
	elevations []elevation

	// Duplicate injection: with probability dupRate the message is
	// delivered twice, the copy lagging dupLag behind the original.
	dupRate float64
	dupLag  sim.Time
	dupRng  *rand.Rand

	// Reorder injection: with probability reorderRate a message is held
	// an extra U[1, reorderJitter] without advancing the FIFO clamp, so
	// later sends may overtake it.
	reorderRate   float64
	reorderJitter sim.Time
	reorderRng    *rand.Rand

	sent    int
	dropped int

	duplicated    int
	reordered     int
	windowDropped int
}

type timeWindow struct{ from, to sim.Time }

type elevation struct {
	from, to sim.Time
	extra    sim.Time
}

// Option configures a Link.
type Option func(*Link)

// WithLoss sets an i.i.d. drop probability. The rng must be provided
// (deterministically seeded) when rate > 0; NewLink panics otherwise.
func WithLoss(rate float64, rng *rand.Rand) Option {
	return func(l *Link) {
		l.lossRate = rate
		l.rng = rng
	}
}

// NewLink builds a link delivering to recv with the given latency model.
func NewLink(k *sim.Kernel, latency LatencyFunc, recv func(v any), opts ...Option) *Link {
	l := &Link{k: k, latency: latency, recv: recv}
	for _, o := range opts {
		o(l)
	}
	if l.lossRate > 0 && l.rng == nil {
		panic("netsim: loss injection needs an rng")
	}
	return l
}

// deliver schedules one delivery of v at time at: v parks in the slab
// and the kernel event carries its slot index.
func (l *Link) deliver(at sim.Time, v any) {
	l.k.Schedule(at, (*arrival)(l), l.inflight.Put(v))
}

// arrival is a Link as the sim.Handler of its own deliveries; the
// separate name keeps Fire out of Link's method set.
type arrival Link

// Fire delivers the payload parked in slot i. The slot is free before
// the receiver runs, so a receiver that sends on this same link may be
// handed it again.
func (a *arrival) Fire(i int) {
	l := (*Link)(a)
	l.recv(l.inflight.Take(i))
}

// Send injects v into the link at the current simulation time.
// It returns the scheduled arrival time, or -1 if the message was dropped.
func (l *Link) Send(v any) sim.Time {
	l.sent++
	now := l.k.Now()
	if l.dropNext > 0 {
		l.dropNext--
		l.dropped++
		return -1
	}
	for _, w := range l.partitions {
		if now >= w.from && now < w.to {
			l.dropped++
			l.windowDropped++
			return -1
		}
	}
	if l.lossRate > 0 && l.rng.Float64() < l.lossRate {
		l.dropped++
		return -1
	}
	lat := l.latency(now)
	for _, e := range l.elevations {
		if now >= e.from && now < e.to {
			lat += e.extra
		}
	}
	at := now + lat
	if at < l.lastArrAt {
		// FIFO: a later send may not overtake an earlier arrival. Equal
		// timestamps preserve order because the kernel breaks ties FIFO.
		at = l.lastArrAt
	}
	if l.reorderRate > 0 && l.reorderRng.Float64() < l.reorderRate {
		// Reordered: the message is held past its FIFO slot and the clamp
		// is NOT advanced, so later sends may arrive before it. Relative
		// to *earlier* messages it is still in order (it only ever gets
		// later), matching a packet stuck in a queue.
		at += 1 + sim.Time(l.reorderRng.Int64N(int64(l.reorderJitter)))
		l.reordered++
	} else {
		l.lastArrAt = at
	}
	l.deliver(at, v)
	if l.dupRate > 0 && l.dupRng.Float64() < l.dupRate {
		// The duplicate trails the original and never advances the FIFO
		// clamp: copies arrive late, as duplicated packets do.
		l.duplicated++
		l.deliver(at+l.dupLag, v)
	}
	return at
}

// DropNext forces the next n sends to be dropped — deterministic loss
// injection for failure tests (Appendix D scenarios).
func (l *Link) DropNext(n int) { l.dropNext = n }

// DropDuring adds a deterministic partition window: every send in
// [from, to) is dropped. Windows may overlap and are checked in order.
func (l *Link) DropDuring(from, to sim.Time) {
	if to <= from {
		panic("netsim: empty partition window")
	}
	l.partitions = append(l.partitions, timeWindow{from: from, to: to})
}

// Elevate adds extra one-way latency to every send in [from, to) — the
// primitive behind coordinated latency attacks and brownout scenarios.
// Elevated messages still obey the FIFO clamp.
func (l *Link) Elevate(from, to, extra sim.Time) {
	if to <= from {
		panic("netsim: empty elevation window")
	}
	if extra < 0 {
		panic("netsim: negative elevation")
	}
	l.elevations = append(l.elevations, elevation{from: from, to: to, extra: extra})
}

// EnableDup turns on duplicate injection: each sent message is delivered
// a second time with probability rate, the copy arriving lag after the
// original. The rng must be deterministically seeded.
func (l *Link) EnableDup(rate float64, lag sim.Time, rng *rand.Rand) {
	if rate > 0 && (lag <= 0 || rng == nil) {
		panic("netsim: dup injection needs positive lag and an rng")
	}
	l.dupRate, l.dupLag, l.dupRng = rate, lag, rng
}

// EnableReorder turns on reorder injection: each sent message is, with
// probability rate, held an extra U[1, jitter] beyond its FIFO slot
// without advancing the clamp, so later sends can overtake it. The rng
// must be deterministically seeded.
func (l *Link) EnableReorder(rate float64, jitter sim.Time, rng *rand.Rand) {
	if rate > 0 && (jitter <= 0 || rng == nil) {
		panic("netsim: reorder injection needs positive jitter and an rng")
	}
	l.reorderRate, l.reorderJitter, l.reorderRng = rate, jitter, rng
}

// Stats reports (sent, dropped) counters.
func (l *Link) Stats() (sent, dropped int) { return l.sent, l.dropped }

// FaultStats reports injected-fault counters: duplicated deliveries,
// reordered (clamp-skipping) deliveries, and partition-window drops
// (the latter are also included in Stats' dropped).
func (l *Link) FaultStats() (dup, reorder, windowDrop int) {
	return l.duplicated, l.reordered, l.windowDropped
}

// LatencyAt exposes the link's latency model so harnesses can compute
// the paper's Max-RTT lower bound (Theorem 3) from ground truth.
func (l *Link) LatencyAt(t sim.Time) sim.Time { return l.latency(t) }

// Path is the bidirectional connectivity of one participant: the
// CES→RB direction (market data) and the RB→CES direction (trades and
// heartbeats).
type Path struct {
	Fwd *Link // CES → RB
	Rev *Link // RB → CES
}

// RTTAt returns the instantaneous round trip — the forward latency at t
// plus the reverse latency at t. This is the quantity Max-RTT bounds
// are computed from.
func (p *Path) RTTAt(t sim.Time) sim.Time {
	return p.Fwd.LatencyAt(t) + p.Rev.LatencyAt(t)
}

// StarConfig builds the star topology of the paper's deployments: one
// CES, N participants, each with its own pair of directed links whose
// latencies are independent random slices of a common base trace.
type StarConfig struct {
	Base     *trace.Trace // shared RTT trace (e.g. trace.Cloud(...).Generate())
	N        int          // number of participants
	Seed     uint64       // slice-selection seed
	Skew     []float64    // optional per-participant static scale (len N or nil)
	LossRate float64      // i.i.d. loss on every link (0 = lossless)
}

// Star wires the topology. fwdRecv(i) and revRecv(i) produce the
// receiver callbacks for participant i's two directions.
func Star(k *sim.Kernel, cfg StarConfig, fwdRecv, revRecv func(i int) func(v any)) []*Path {
	if cfg.N <= 0 {
		panic("netsim: star needs at least one participant")
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x5bf03635))
	paths := make([]*Path, cfg.N)
	for i := 0; i < cfg.N; i++ {
		fwdTr := cfg.Base.RandomSlice(rng)
		revTr := cfg.Base.RandomSlice(rng)
		if cfg.Skew != nil {
			fwdTr = fwdTr.Scale(cfg.Skew[i])
			revTr = revTr.Scale(cfg.Skew[i])
		}
		var fwdOpts, revOpts []Option
		if cfg.LossRate > 0 {
			// Each direction gets its own sub-rng: sharing one stream
			// couples the loss processes, so an extra send on one link
			// would perturb which packets the other drops.
			fwdOpts = append(fwdOpts, WithLoss(cfg.LossRate, k.SubRand(uint64(i)*2+1000)))
			revOpts = append(revOpts, WithLoss(cfg.LossRate, k.SubRand(uint64(i)*2+1001)))
		}
		paths[i] = &Path{
			Fwd: NewLink(k, FromTrace(fwdTr), fwdRecv(i), fwdOpts...),
			Rev: NewLink(k, FromTrace(revTr), revRecv(i), revOpts...),
		}
	}
	return paths
}

// MaxRTTAt returns the maximum instantaneous RTT across all paths — the
// Theorem 3 latency lower bound for a trade triggered now.
func MaxRTTAt(paths []*Path, t sim.Time) sim.Time {
	var max sim.Time
	for _, p := range paths {
		if r := p.RTTAt(t); r > max {
			max = r
		}
	}
	return max
}
