package exchange

import (
	"fmt"
	"io"

	"dbo/internal/audit"
	"dbo/internal/clock"
	"dbo/internal/core"
	"dbo/internal/flight"
	"dbo/internal/market"
	"dbo/internal/sim"
	"dbo/internal/trace"
)

// Scheme selects the ordering mechanism under evaluation.
type Scheme int

const (
	// Direct is the baseline: raw network delivery, FCFS sequencing.
	Direct Scheme = iota
	// DBO is delivery based ordering (the paper's system).
	DBO
	// CloudEx is threshold-based equalization with perfect clock sync.
	CloudEx
	// FBA is frequent batch auctions.
	FBA
	// Libra is randomized priority ordering.
	Libra
)

func (s Scheme) String() string {
	switch s {
	case Direct:
		return "direct"
	case DBO:
		return "dbo"
	case CloudEx:
		return "cloudex"
	case FBA:
		return "fba"
	case Libra:
		return "libra"
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// Config describes one simulated deployment and workload. Zero values
// take the defaults listed on each field.
type Config struct {
	Scheme Scheme
	Seed   uint64

	// Topology.
	N     int          // number of market participants (default 10)
	Trace *trace.Trace // base RTT trace (default trace.Cloud(Seed))
	Skew  []float64    // per-MP static latency scale (default spread ±15%)

	// Workload (§6.1 methodology).
	TickInterval sim.Time // market data generation interval (default 40µs)
	TickJitter   float64  // bursty generation: each gap is scaled by U[1-j, 1+j] (0 = periodic)
	Duration     sim.Time // generation horizon (default 200ms)
	Warmup       sim.Time // ignore trades triggered before this (default 5ms)
	Drain        sim.Time // extra time for in-flight trades (default 50ms)
	RTMin, RTMax sim.Time // response time U[min,max] (default 5–20µs)
	TradeProb    float64  // per-MP per-tick trade probability (default 0.5)

	// DBO parameters (§4.2.1 guidance; defaults δ=20µs, κ=0.25, τ=20µs).
	Delta        sim.Time
	Kappa        float64
	Tau          sim.Time
	StragglerRTT sim.Time // 0 disables straggler mitigation
	OBShards     int      // ≤1 = single ordering buffer
	SyncOffset   sim.Time // >0 enables §4.2.6 sync-assisted delivery

	// CloudEx one-way thresholds (defaults 60µs each).
	C1, C2 sim.Time

	// FBA auction interval (default 1ms) and Libra window (default 50µs).
	FBAInterval sim.Time
	LibraWindow sim.Time

	// Symbols is the number of instruments the CES publishes, round-
	// robin across ticks (default 1). Trades follow their trigger's
	// symbol into the matching engine.
	Symbols int

	// External data streams (§4.2.6 "External data streams"): every
	// ExternalEvery-th tick also represents an external opportunity
	// (e.g. a news event). When ExternalBypass is false the event is
	// serialized into the market data super-stream and inherits DBO's
	// guarantee; when true it reaches participants on a direct bypass
	// path with participant-dependent latency (an internet feed), and
	// the trades it triggers are ordered only by whatever the delivery
	// clock happens to read.
	ExternalEvery  int
	ExternalBypass bool

	// Fault/imperfection injection.
	LossRate   float64 // i.i.d. packet loss on every link
	ClockDrift bool    // give each RB an unsynchronized drifting clock

	// Faults is the deterministic hostile-network plan: partitions,
	// duplicates, reordering, RB crash/restart, latency attacks, feed
	// bursts. The zero value injects nothing.
	Faults FaultPlan

	// Adaptive, when non-nil, switches straggler mitigation from the
	// static StragglerRTT constant to an adaptive threshold learned
	// from measured RTTs (StragglerRTT stays the hard cap, so it must
	// be positive). A fresh policy is built per run; sharded OBs share
	// one instance across shards.
	Adaptive *core.AdaptiveConfig

	// LocalClocks, when non-nil, pins each RB's local clock explicitly
	// (len N); it overrides ClockDrift. Conformance harnesses use it so
	// oracles know the exact drift model each RB measures with.
	LocalClocks []clock.Local

	// Instrumentation.
	CollectSamples bool      // keep raw per-trade latency samples (CDFs)
	KeepTrades     bool      // retain the forwarded trade log in the Result
	Audit          io.Writer // stream a replay.Recorder audit log here
	Hooks          Hooks     // optional taps; zero value = no taps

	// Flight, when non-nil, records the full trade lifecycle (DBO
	// scheme): CES generation and batch seals, RB deliveries and
	// delivery-clock tagging, OB enqueue/watermark/release with
	// hold-time attribution, straggler transitions, and ME matches.
	// All events are stamped with virtual time, so a seeded run's trace
	// is byte-identical across runs.
	Flight *flight.Recorder

	// FlightFor, when non-nil, overrides Flight with one recorder per
	// node — the multi-node deployment shape: market.NodeCES gets the
	// CES/OB/ME events, market.NodeOfMP(i) each RB's deliver/submit
	// events. Return nil to leave a node unrecorded. The harness stamps
	// each recorder's node id, so the per-node NDJSON exports feed
	// `dbo-flight -merge` directly.
	FlightFor func(node market.NodeID) *flight.Recorder

	// Auditor, when non-nil, receives the conformance stream live: every
	// batch delivery (OnDeliver) and every matched trade (OnForward),
	// stamped with kernel time. (The replay audit log writer above is
	// the unrelated Audit field.)
	Auditor *audit.Auditor
}

// PartitionDir selects which direction(s) of a participant's path a
// partition window severs.
type PartitionDir int

const (
	PartitionBoth PartitionDir = iota // both directions (default)
	PartitionFwd                      // CES → RB only (market data)
	PartitionRev                      // RB → CES only (trades, heartbeats)
)

// Partition is a deterministic drop window: every packet sent on the
// selected direction(s) of MP's path during [From, To) is lost.
type Partition struct {
	MP       int // 1-based participant; 0 = every participant
	From, To sim.Time
	Dir      PartitionDir
}

// RBOutage crashes MP's release buffer at From and restarts it at To
// (DBO scheme only). While down the RB drops market data and trades;
// on restart the first data point exposes the gap and triggers
// retransmission, and heartbeats resume on a fresh chain.
type RBOutage struct {
	MP       int // 1-based participant
	From, To sim.Time
}

// LatencyAttack elevates one participant's reverse-path latency by
// Extra during [From, To) — the adversary of the probabilistic
// fair-ordering analysis, farming straggler handling by looking slow:
// its delayed heartbeats hold the release gate (raising everyone's
// latency) until the OB excludes it. How fast that exclusion lands is
// exactly what adaptive thresholds improve over the static baseline.
type LatencyAttack struct {
	MP       int // 1-based participant
	From, To sim.Time
	Extra    sim.Time
}

// FeedBurst multiplies the market-data tick rate by Factor during
// [From, To) — a flash event stressing RB pacing and OB backlog.
type FeedBurst struct {
	From, To sim.Time
	Factor   int // ≥ 2
}

// FaultPlan aggregates every deterministic fault a run injects. All
// randomness is drawn from per-link sub-rngs of the run's seed, so a
// plan replays identically.
type FaultPlan struct {
	// Duplicate injection on the market-data (forward) links: each
	// point is delivered twice with probability DupRate, the copy
	// arriving DupLag late (default 5µs when a rate is set).
	DupRate float64
	DupLag  sim.Time

	// Reorder injection on the forward links: each point is, with
	// probability ReorderRate, held up to ReorderJitter past its FIFO
	// slot so later points overtake it (default jitter 20µs). The
	// reverse path is deliberately exempt from dup/reorder: it models
	// the framed-TCP channel whose in-order delivery DBO assumes (§3).
	ReorderRate   float64
	ReorderJitter sim.Time

	Partitions []Partition
	Outages    []RBOutage
	Attack     *LatencyAttack
	Burst      *FeedBurst
}

// Lossy reports whether the plan can destroy packets or trades — the
// conservation oracle must then tolerate losses.
func (f *FaultPlan) Lossy() bool {
	return len(f.Partitions) > 0 || len(f.Outages) > 0
}

// Active reports whether any fault is configured.
func (f *FaultPlan) Active() bool {
	return f.DupRate > 0 || f.ReorderRate > 0 || f.Lossy() || f.Attack != nil || f.Burst != nil
}

// Hooks are optional experiment taps into the simulation.
type Hooks struct {
	// OnDeliver fires when market data reaches an MP (any scheme).
	OnDeliver func(mp int, lastPoint uint64, at sim.Time)
	// OnForward fires when a trade is forwarded to the matching engine.
	OnForward func(mp int, forwarded sim.Time)
	// OnScore fires for every scored (post-warmup) trade with its
	// trigger generation time and end-to-end latency (Equation 8).
	OnScore func(mp int, trigGen, latency sim.Time)

	// The taps below are conformance-oracle observation points; they see
	// full messages rather than summaries.

	// OnBatch fires when an RB delivers a complete batch to its MP
	// (DBO scheme only). The batch must not be mutated, or retained past
	// the call: the RB recycles it and its Points for a later batch.
	OnBatch func(mp int, b *market.Batch, at sim.Time)
	// OnTag fires for every message an RB sends on the reverse path
	// after delivery-clock tagging: *market.Trade, market.Heartbeat, or
	// core.RetxRequest (DBO scheme only).
	OnTag func(mp int, v any)
	// OnUpstream fires when a reverse-path message arrives at the CES,
	// before it is dispatched to the ordering scheme.
	OnUpstream func(v any, at sim.Time)
	// OnRelease fires when the ordering scheme forwards a trade to the
	// matching engine, with its final stamps (Forwarded, FinalPos).
	OnRelease func(t *market.Trade)
	// OnStraggler observes straggler exclusion/re-admission transitions
	// in the ordering buffer or its shards (§4.2.1).
	OnStraggler func(ev core.StragglerEvent)
}

// withDefaults returns a copy with defaults applied.
func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N = 10
	}
	if c.N < 1 {
		panic("exchange: need at least one participant")
	}
	if c.Trace == nil {
		c.Trace = trace.Cloud(c.Seed).Generate()
	}
	if c.Skew == nil {
		// ±25% static path spread reproduces the paper's cloud testbed
		// shape: Max-RTT avg ≈ 1.2× Direct avg and Direct fairness ≈ 58%.
		c.Skew = DefaultSkew(c.N, 0.25)
	}
	if len(c.Skew) != c.N {
		panic(fmt.Sprintf("exchange: len(Skew)=%d, want N=%d", len(c.Skew), c.N))
	}
	if c.LocalClocks != nil && len(c.LocalClocks) != c.N {
		panic(fmt.Sprintf("exchange: len(LocalClocks)=%d, want N=%d", len(c.LocalClocks), c.N))
	}
	if c.TickJitter < 0 || c.TickJitter >= 1 {
		panic(fmt.Sprintf("exchange: TickJitter %v outside [0,1)", c.TickJitter))
	}
	if c.TickInterval == 0 {
		c.TickInterval = 40 * sim.Microsecond
	}
	if c.Duration == 0 {
		c.Duration = 200 * sim.Millisecond
	}
	if c.Warmup == 0 {
		c.Warmup = 5 * sim.Millisecond
	}
	if c.Drain == 0 {
		c.Drain = 50 * sim.Millisecond
	}
	if c.RTMin == 0 && c.RTMax == 0 {
		c.RTMin, c.RTMax = 5*sim.Microsecond, 20*sim.Microsecond
	}
	if c.RTMax < c.RTMin {
		panic("exchange: RTMax < RTMin")
	}
	if c.TradeProb == 0 {
		c.TradeProb = 0.5
	}
	if c.Delta == 0 {
		c.Delta = 20 * sim.Microsecond
	}
	if c.Kappa == 0 {
		c.Kappa = 0.25
	}
	if c.Tau == 0 {
		c.Tau = 20 * sim.Microsecond
	}
	if c.C1 == 0 {
		c.C1 = 60 * sim.Microsecond
	}
	if c.C2 == 0 {
		c.C2 = 60 * sim.Microsecond
	}
	if c.FBAInterval == 0 {
		c.FBAInterval = sim.Millisecond
	}
	if c.Symbols == 0 {
		c.Symbols = 1
	}
	if c.LibraWindow == 0 {
		c.LibraWindow = 50 * sim.Microsecond
	}
	c.validateFaults()
	return c
}

func (c *Config) validateFaults() {
	f := &c.Faults
	if f.DupRate > 0 && f.DupLag == 0 {
		f.DupLag = 5 * sim.Microsecond
	}
	if f.ReorderRate > 0 && f.ReorderJitter == 0 {
		f.ReorderJitter = 20 * sim.Microsecond
	}
	mpInRange := func(kind string, mp int) {
		if mp < 1 || mp > c.N {
			panic(fmt.Sprintf("exchange: %s MP %d out of range 1..%d", kind, mp, c.N))
		}
	}
	for _, p := range f.Partitions {
		if p.MP != 0 {
			mpInRange("partition", p.MP)
		}
		if p.To <= p.From {
			panic("exchange: empty partition window")
		}
	}
	for _, o := range f.Outages {
		mpInRange("outage", o.MP)
		if o.To <= o.From {
			panic("exchange: empty outage window")
		}
		if c.Scheme != DBO {
			panic("exchange: RB outages need the DBO scheme")
		}
	}
	if a := f.Attack; a != nil {
		mpInRange("attack", a.MP)
		if a.To <= a.From || a.Extra <= 0 {
			panic("exchange: latency attack needs a window and positive Extra")
		}
	}
	if b := f.Burst; b != nil {
		if b.To <= b.From || b.Factor < 2 {
			panic("exchange: feed burst needs a window and Factor ≥ 2")
		}
	}
	if c.Adaptive != nil && c.StragglerRTT <= 0 {
		panic("exchange: Adaptive thresholds need StragglerRTT > 0 as the cap")
	}
}

// DefaultSkew spreads N static latency multipliers evenly over
// [1-spread, 1+spread] — the non-equidistant paths of a real cloud.
func DefaultSkew(n int, spread float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		if n == 1 {
			out[i] = 1
			continue
		}
		out[i] = 1 - spread + 2*spread*float64(i)/float64(n-1)
	}
	return out
}
