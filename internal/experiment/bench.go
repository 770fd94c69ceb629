// Benchmark trajectory: machine-readable performance snapshots
// (BENCH_<date>.json) so speed is a tracked curve, not an anecdote.
//
// The report has three sections:
//
//   - pipeline: the tag→enqueue→release micro-benchmark — one release
//     buffer feeding an ordering buffer gated by P participant
//     watermarks, with pooled trades and recycled batches.
//   - sim: the seeded end-to-end exchange simulation (wall-clock
//     trades/sec plus simulated hold-time quantiles from an
//     internal/metrics histogram).
//   - wire: encode/decode throughput of the fixed-layout codec and the
//     allocation count of a steady-state round trip.
//
// Wall time is injected (nowNanos) so this package stays off the
// dbo-vet walltime allowlist; cmd/dbo-bench passes time.Now.
package experiment

import (
	"encoding/json"
	"fmt"
	"runtime"

	"dbo/internal/core"
	"dbo/internal/exchange"
	"dbo/internal/market"
	"dbo/internal/metrics"
	"dbo/internal/sim"
	"dbo/internal/wire"
)

// BenchSchemaVersion identifies the BENCH_*.json layout. Bump it on
// any field change; ParseBenchReport rejects other versions so CI
// comparisons never mix layouts silently.
const BenchSchemaVersion = 2

// BenchReport is one benchmark trajectory snapshot.
type BenchReport struct {
	Schema    int    `json:"schema"`
	Date      string `json:"date"` // YYYY-MM-DD, supplied by the caller
	Seed      uint64 `json:"seed"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Short     bool   `json:"short"` // reduced iteration counts (CI smoke)

	Pipeline PipelineResult  `json:"pipeline"`
	Sim      SimBenchResult  `json:"sim"`
	Wire     WireBenchResult `json:"wire"`
}

// PipelineResult measures the tag→enqueue→release path.
type PipelineResult struct {
	Participants int     `json:"participants"`
	Trades       int64   `json:"trades"`
	TradesPerSec float64 `json:"trades_per_sec"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	// Hold-time quantiles are simulated time (the pacing interval a
	// trade waits for trailing watermarks), from an internal/metrics
	// histogram; they pin the benchmark's shape, not wall speed.
	HoldP50 sim.Time `json:"hold_p50_ns"`
	HoldP99 sim.Time `json:"hold_p99_ns"`
}

// SimBenchResult measures the seeded end-to-end simulation.
type SimBenchResult struct {
	Duration     sim.Time `json:"duration_ns"` // simulated horizon
	Trades       int      `json:"trades"`
	TradesPerSec float64  `json:"trades_per_sec"` // wall-clock rate
	HoldP50      sim.Time `json:"hold_p50_ns"`    // simulated OB hold
	HoldP99      sim.Time `json:"hold_p99_ns"`
}

// WireBenchResult measures the fixed-layout codec on a steady-state
// trade+heartbeat+market-data message mix.
type WireBenchResult struct {
	EncodeNsPerOp  float64 `json:"encode_ns_per_op"`
	DecodeNsPerOp  float64 `json:"decode_ns_per_op"`
	EncodeMBPerSec float64 `json:"encode_mb_per_sec"`
	DecodeMBPerSec float64 `json:"decode_mb_per_sec"`
	AllocsPerOp    float64 `json:"allocs_per_op"` // full round trip
}

// EncodeBenchReport renders a report as indented JSON with a trailing
// newline (the committed BENCH_*.json format).
func EncodeBenchReport(r *BenchReport) ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ParseBenchReport parses and validates a BENCH_*.json document.
func ParseBenchReport(b []byte) (*BenchReport, error) {
	var r BenchReport
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("bench report: %w", err)
	}
	if r.Schema != BenchSchemaVersion {
		return nil, fmt.Errorf("bench report: schema %d, want %d", r.Schema, BenchSchemaVersion)
	}
	return &r, nil
}

// CompareBenchReports checks next against base under the CI policy and
// returns one message per regression (empty = pass):
//
//   - any allocs/op increase fails — allocation counts are
//     hardware-independent, so the budget is exact;
//   - a trades/sec drop beyond tol (e.g. 0.20) on the pipeline or sim
//     sections fails — wall-clock rates are machine-relative, so the
//     tolerance absorbs machine-to-machine noise and the checked-in
//     base must come from a comparable class of machine.
func CompareBenchReports(base, next *BenchReport, tol float64) []string {
	// The pipeline/wire alloc counts come from runtime.ReadMemStats,
	// which tallies whole-process mallocs: a stray background runtime
	// allocation shows up as ~1e-5 allocs/op on a short run. allocEps
	// absorbs that noise; real per-op regressions are ≥1 and the exact
	// zero budget is pinned separately by testing.AllocsPerRun tests.
	const allocEps = 0.01
	var out []string
	if next.Pipeline.AllocsPerOp > base.Pipeline.AllocsPerOp+allocEps {
		out = append(out, fmt.Sprintf("pipeline allocs/op %.2f > base %.2f",
			next.Pipeline.AllocsPerOp, base.Pipeline.AllocsPerOp))
	}
	if next.Wire.AllocsPerOp > base.Wire.AllocsPerOp+allocEps {
		out = append(out, fmt.Sprintf("wire allocs/op %.2f > base %.2f",
			next.Wire.AllocsPerOp, base.Wire.AllocsPerOp))
	}
	floor := 1 - tol
	if next.Pipeline.TradesPerSec < base.Pipeline.TradesPerSec*floor {
		out = append(out, fmt.Sprintf("pipeline trades/sec %.0f < %.0f%% of base %.0f",
			next.Pipeline.TradesPerSec, 100*floor, base.Pipeline.TradesPerSec))
	}
	if next.Sim.TradesPerSec < base.Sim.TradesPerSec*floor {
		out = append(out, fmt.Sprintf("sim trades/sec %.0f < %.0f%% of base %.0f",
			next.Sim.TradesPerSec, 100*floor, base.Sim.TradesPerSec))
	}
	return out
}

// BenchOpts configures a full RunBench sweep.
type BenchOpts struct {
	Seed  uint64
	Short bool   // CI smoke: ~10× fewer iterations, 50ms sim horizon
	Date  string // stamped into the report verbatim
	// Now returns wall-clock nanoseconds (time.Now().UnixNano from
	// cmd); injected to keep experiment off the walltime allowlist.
	Now func() int64
}

// RunBench produces one complete trajectory snapshot.
func RunBench(o BenchOpts) *BenchReport {
	steps, wireIters, simDur := 200_000, 1_000_000, 200*sim.Millisecond
	if o.Short {
		steps, wireIters, simDur = 20_000, 100_000, 50*sim.Millisecond
	}
	r := &BenchReport{
		Schema:    BenchSchemaVersion,
		Date:      o.Date,
		Seed:      o.Seed,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Short:     o.Short,
	}
	r.Pipeline = RunPipelineBench(PipelineOpts{Seed: o.Seed}, steps, o.Now)
	r.Sim = RunSimBench(o.Seed, simDur, o.Now)
	r.Wire = RunWireBench(wireIters, o.Now)
	return r
}

// PipelineOpts configures the tag→enqueue→release micro-benchmark.
type PipelineOpts struct {
	// Participants is the number of watermark sources gating the OB,
	// including the always-trading MP 1 (default 100, the largest
	// scale of the paper's Figure 12 — a gate width where per-release
	// watermark scans actually cost something).
	Participants int
	Seed         uint64
}

// benchSched is the pipeline's manual clock. The harness keeps pacing
// satisfied by construction (it advances the clock one δ per point),
// so any At call means the workload drifted from that invariant.
type benchSched struct{ now sim.Time }

func (s *benchSched) Now() sim.Time { return s.now }
func (s *benchSched) At(at sim.Time, fn func()) {
	panic("experiment: pipeline bench scheduled a timer; pacing must stay satisfied by construction")
}

// Pipeline drives the steady-state tag→enqueue→release path: a CES
// tick becomes a batch, the RB delivers it and tags the MP's reactive
// trade, the OB enqueues it, and trailing participant watermarks
// release it one pacing interval later. Deterministic in Seed.
type Pipeline struct {
	sched *benchSched
	rb    *core.ReleaseBuffer
	ob    *core.OrderingBuffer
	pool  market.TradePool
	hold  *metrics.Histogram
	parts []market.ParticipantID
	point market.PointID
	seq   market.TradeSeq
	rng   uint64
	delta sim.Time

	released int64
}

// NewPipeline builds a pipeline harness.
func NewPipeline(o PipelineOpts) *Pipeline {
	if o.Participants <= 0 {
		o.Participants = 100
	}
	p := &Pipeline{
		sched: &benchSched{},
		hold:  metrics.NewHistogram(),
		delta: 20 * sim.Microsecond,
		rng:   o.Seed*2 + 1, // any odd seed; xorshift must not start at 0
	}
	for i := 0; i < o.Participants; i++ {
		p.parts = append(p.parts, market.ParticipantID(i+1))
	}
	p.ob = core.NewOrderingBuffer(core.OrderingBufferConfig{
		Participants: p.parts,
		Forward:      p.onForward,
		Sched:        p.sched,
	})
	p.rb = core.NewReleaseBuffer(core.ReleaseBufferConfig{
		MP:             1,
		Delta:          p.delta,
		Sched:          p.sched,
		Deliver:        p.onBatch,
		Send:           p.onSend,
		RecycleBatches: true,
	})
	return p
}

// Step advances one market tick end to end. Participant heartbeats
// trail delivery by one batch (a heartbeat sent just before point k+1
// arrived still reports ⟨k, δ⟩), so every trade is held for exactly
// one pacing interval — the queue is never trivially empty. After the
// confirmations, the tick itself
// arrives: MP 1 reacts through its fully modeled release buffer, and
// every other participant trades with probability 1/32, its trade
// pre-tagged with sub-δ elapsed jitter by its own (unmodeled) RB.
func (p *Pipeline) Step() {
	p.sched.now += p.delta
	p.point++
	if p.point > 1 {
		prev := market.DeliveryClock{Point: p.point - 1, Elapsed: p.delta}
		for _, id := range p.parts {
			p.ob.OnHeartbeat(market.Heartbeat{MP: id, DC: prev, Sent: p.sched.now})
		}
	}
	p.rb.OnData(market.DataPoint{
		ID: p.point, Batch: market.BatchID(p.point), Last: true,
		Gen: p.sched.now, Symbol: 1, Price: 100, Qty: 1,
	})
	for _, id := range p.parts[1:] {
		if p.rand()&31 != 0 {
			continue
		}
		t := p.pool.Get()
		t.MP = id
		p.seq++
		t.Seq = p.seq
		t.Symbol = 1
		t.Side = market.Side(p.rand() & 1)
		t.Price = 100 + int64(p.rand()%32)
		t.Qty = 1 + int64(p.rand()%8)
		t.Trigger = p.point
		t.Submitted = p.sched.now
		t.DC = market.DeliveryClock{
			Point:   p.point,
			Elapsed: sim.Time(p.rand() % uint64(p.delta/2)),
		}
		p.ob.OnTrade(t)
	}
}

// Released reports trades forwarded so far.
func (p *Pipeline) Released() int64 { return p.released }

// HoldHist exposes the hold-time histogram (simulated nanoseconds).
func (p *Pipeline) HoldHist() *metrics.Histogram { return p.hold }

func (p *Pipeline) onBatch(b *market.Batch) {
	t := p.pool.Get()
	t.MP = 1
	p.seq++
	t.Seq = p.seq
	t.Symbol = 1
	t.Side = market.Side(p.rand() & 1)
	t.Price = 100 + int64(p.rand()%32)
	t.Qty = 1 + int64(p.rand()%8)
	t.Trigger = b.LastPoint()
	t.Submitted = p.sched.now
	p.rb.OnTrade(t)
}

func (p *Pipeline) onSend(v any) {
	if t, ok := v.(*market.Trade); ok {
		p.ob.OnTrade(t)
	}
}

func (p *Pipeline) onForward(t *market.Trade) {
	p.released++
	p.hold.Observe(int64(t.Forwarded - t.Enqueued))
	p.pool.Put(t)
}

// rand is an inline xorshift64 — deterministic, allocation-free.
func (p *Pipeline) rand() uint64 {
	p.rng ^= p.rng << 13
	p.rng ^= p.rng >> 7
	p.rng ^= p.rng << 17
	return p.rng
}

// RunPipelineBench measures steps pipeline ticks after a warmup that
// fills the pools and free lists (the steady state is what ships;
// cold-start allocations are not the budget).
func RunPipelineBench(o PipelineOpts, steps int, nowNanos func() int64) PipelineResult {
	p := NewPipeline(o)
	for i := 0; i < 2048; i++ {
		p.Step()
	}
	released0 := p.released
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := nowNanos()
	for i := 0; i < steps; i++ {
		p.Step()
	}
	elapsed := nowNanos() - start
	runtime.ReadMemStats(&m1)
	if elapsed <= 0 {
		elapsed = 1
	}
	trades := p.released - released0
	s := p.hold.Snapshot()
	return PipelineResult{
		Participants: len(p.parts),
		Trades:       trades,
		TradesPerSec: float64(trades) / (float64(elapsed) / 1e9),
		NsPerOp:      float64(elapsed) / float64(trades),
		AllocsPerOp:  float64(m1.Mallocs-m0.Mallocs) / float64(trades),
		HoldP50:      sim.Time(s.Quantile(0.50)),
		HoldP99:      sim.Time(s.Quantile(0.99)),
	}
}

// RunSimBench measures the seeded end-to-end DBO simulation: wall
// trades/sec plus simulated OB hold quantiles observed at release.
func RunSimBench(seed uint64, duration sim.Time, nowNanos func() int64) SimBenchResult {
	hold := metrics.NewHistogram()
	cfg := exchange.Config{
		Scheme:   exchange.DBO,
		Seed:     seed,
		N:        10,
		Duration: duration,
		Warmup:   2 * sim.Millisecond,
		Drain:    10 * sim.Millisecond,
		Hooks: exchange.Hooks{
			OnRelease: func(t *market.Trade) { hold.Observe(int64(t.Forwarded - t.Enqueued)) },
		},
	}
	start := nowNanos()
	r := exchange.Run(cfg)
	elapsed := nowNanos() - start
	if elapsed <= 0 {
		elapsed = 1
	}
	s := hold.Snapshot()
	return SimBenchResult{
		Duration:     duration,
		Trades:       r.Trades,
		TradesPerSec: float64(r.Trades) / (float64(elapsed) / 1e9),
		HoldP50:      sim.Time(s.Quantile(0.50)),
		HoldP99:      sim.Time(s.Quantile(0.99)),
	}
}

// RunWireBench measures the codec on a trade+heartbeat+market-data mix
// (iters rounds, three messages per round) with reused buffers — the
// steady state of a receive loop.
func RunWireBench(iters int, nowNanos func() int64) WireBenchResult {
	t := &market.Trade{
		MP: 7, Seq: 42, Symbol: 3, Side: market.Buy, Price: 101, Qty: 5,
		Trigger: 9, Submitted: 1000, RT: 12,
		DC: market.DeliveryClock{Point: 9, Elapsed: 77},
	}
	hb := market.Heartbeat{MP: 7, DC: market.DeliveryClock{Point: 9, Elapsed: 80}, Sent: 1010}
	dp := market.DataPoint{ID: 10, Batch: 4, Last: true, Gen: 990, Symbol: 3, Price: 100, Qty: 2}

	buf := make([]byte, 0, wire.TradeSize+wire.HeartbeatSize+wire.MarketDataSize)
	var msg wire.Msg
	encode := func() {
		buf = buf[:0]
		buf = wire.AppendTrade(buf, t)
		buf = wire.AppendHeartbeat(buf, hb)
		buf = wire.AppendMarketData(buf, dp)
	}
	decode := func() {
		_ = wire.DecodeInto(&msg, buf[:wire.TradeSize])
		_ = wire.DecodeInto(&msg, buf[wire.TradeSize:wire.TradeSize+wire.HeartbeatSize])
		_ = wire.DecodeInto(&msg, buf[wire.TradeSize+wire.HeartbeatSize:])
	}
	encode()
	decode() // warm: buffer at capacity, code paths touched

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	encStart := nowNanos()
	for i := 0; i < iters; i++ {
		encode()
	}
	encElapsed := nowNanos() - encStart
	decStart := nowNanos()
	for i := 0; i < iters; i++ {
		decode()
	}
	decElapsed := nowNanos() - decStart
	runtime.ReadMemStats(&m1)
	if encElapsed <= 0 {
		encElapsed = 1
	}
	if decElapsed <= 0 {
		decElapsed = 1
	}
	msgs := float64(3 * iters)
	bytes := float64(iters * len(buf))
	return WireBenchResult{
		EncodeNsPerOp:  float64(encElapsed) / msgs,
		DecodeNsPerOp:  float64(decElapsed) / msgs,
		EncodeMBPerSec: bytes / 1e6 / (float64(encElapsed) / 1e9),
		DecodeMBPerSec: bytes / 1e6 / (float64(decElapsed) / 1e9),
		AllocsPerOp:    float64(m1.Mallocs-m0.Mallocs) / msgs,
	}
}
