package exchange

import (
	"cmp"
	"slices"
	"testing"

	"dbo/internal/fairness"
	"dbo/internal/sim"
	"dbo/internal/trace"
)

// short returns a config sized for unit tests (≈1250 ticks).
func short(scheme Scheme, seed uint64) Config {
	return Config{
		Scheme:   scheme,
		Seed:     seed,
		N:        5,
		Duration: 50 * sim.Millisecond,
		Warmup:   2 * sim.Millisecond,
		Drain:    20 * sim.Millisecond,
	}
}

func TestDBOAchievesPerfectFairness(t *testing.T) {
	t.Parallel()
	r := Run(short(DBO, 1))
	if r.Trades == 0 {
		t.Fatal("no trades scored")
	}
	if r.Fairness != 1 {
		t.Fatalf("DBO fairness = %v (%d/%d), want 1.0; violations: %+v",
			r.Fairness, r.FairRatio.Correct, r.FairRatio.Total, r.Violations)
	}
	if r.Lost != 0 {
		t.Fatalf("lost %d trades on a lossless network", r.Lost)
	}
}

func TestDirectIsUnfair(t *testing.T) {
	t.Parallel()
	r := Run(short(Direct, 1))
	if r.Fairness >= 0.99 {
		t.Fatalf("direct fairness = %v; expected substantial unfairness on skewed paths", r.Fairness)
	}
	if r.Fairness < 0.3 {
		t.Fatalf("direct fairness = %v; implausibly low", r.Fairness)
	}
}

func TestDBOPaysLatencyForFairness(t *testing.T) {
	t.Parallel()
	dbo := Run(short(DBO, 2))
	dir := Run(short(Direct, 2))
	if dbo.Latency.Avg <= dir.Latency.Avg {
		t.Fatalf("DBO avg %v should exceed direct avg %v", dbo.Latency.Avg, dir.Latency.Avg)
	}
	// DBO respects the Theorem-3 bound on average (small per-trade
	// estimation slack is possible since the bound samples link latency
	// at two instants).
	if float64(dbo.Latency.Avg) < 0.95*float64(dbo.MaxRTT.Avg) {
		t.Fatalf("DBO avg %v below Max-RTT bound avg %v", dbo.Latency.Avg, dbo.MaxRTT.Avg)
	}
}

func TestDeterministicRuns(t *testing.T) {
	t.Parallel()
	a := Run(short(DBO, 42))
	b := Run(short(DBO, 42))
	if a.Fairness != b.Fairness || a.Latency != b.Latency || a.Trades != b.Trades {
		t.Fatalf("same seed diverged: %+v vs %+v", a.Latency, b.Latency)
	}
	c := Run(short(DBO, 43))
	if a.Latency == c.Latency {
		t.Fatal("different seeds produced identical latency summary")
	}
}

// The first violations a seeded run reports are part of its output
// (dbo-sim prints them), so they must repeat like every other number.
func TestDeterministicViolations(t *testing.T) {
	t.Parallel()
	a := Run(short(Direct, 42))
	if len(a.Violations) != 16 {
		t.Fatalf("direct run reported %d violations, want the cap of 16", len(a.Violations))
	}
	for i := 0; i < 4; i++ {
		if b := Run(short(Direct, 42)); !slices.Equal(a.Violations, b.Violations) {
			t.Fatalf("same seed, different violations:\n%+v\n%+v", a.Violations, b.Violations)
		}
	}
	if !slices.IsSortedFunc(a.Violations, func(x, y fairness.Violation) int { return cmp.Compare(x.Trigger, y.Trigger) }) {
		t.Fatalf("violations not in ascending trigger order: %+v", a.Violations)
	}
}

func TestCloudExThresholdTradeoff(t *testing.T) {
	t.Parallel()
	low := short(CloudEx, 3)
	low.C1, low.C2 = 25*sim.Microsecond, 25*sim.Microsecond
	rLow := Run(low)

	high := short(CloudEx, 3)
	// Thresholds above the trace's maximum one-way latency: perfect
	// fairness, permanently high latency.
	high.Trace = trace.Cloud(3).Generate()
	high.C1 = high.Trace.Summarize().Max // one-way max is Max/2; 2× headroom
	high.C2 = high.C1
	rHigh := Run(high)

	if rLow.Fairness >= rHigh.Fairness {
		t.Fatalf("fairness: low-threshold %v should be < high-threshold %v", rLow.Fairness, rHigh.Fairness)
	}
	if rHigh.Fairness != 1 {
		t.Fatalf("CloudEx above-max threshold fairness = %v, want 1.0", rHigh.Fairness)
	}
	if rLow.CloudExOverruns == 0 {
		t.Fatal("low thresholds must overrun on spikes")
	}
	if rHigh.Latency.Avg <= rLow.Latency.Avg {
		t.Fatalf("high-threshold latency %v should exceed low-threshold %v", rHigh.Latency.Avg, rLow.Latency.Avg)
	}
	// CloudEx pays its thresholds always: avg ≈ C1+C2 even though the
	// network is usually fast (Figure 2's "inflated latency").
	want := high.C1 + high.C2
	if rHigh.Latency.Avg < want-2*sim.Microsecond {
		t.Fatalf("CloudEx avg %v below C1+C2 %v", rHigh.Latency.Avg, want)
	}
}

func TestDBOBeatsCloudExFrontier(t *testing.T) {
	t.Parallel()
	// Figure 13's headline: DBO achieves perfect fairness at lower
	// latency than the CloudEx configuration that reaches it.
	dbo := Run(short(DBO, 4))
	cx := short(CloudEx, 4)
	cx.Trace = trace.Cloud(4).Generate()
	cx.C1 = cx.Trace.Summarize().Max
	cx.C2 = cx.C1
	rCx := Run(cx)
	if dbo.Fairness != 1 || rCx.Fairness != 1 {
		t.Fatalf("fairness: dbo %v cloudex %v", dbo.Fairness, rCx.Fairness)
	}
	if dbo.Latency.Avg >= rCx.Latency.Avg {
		t.Fatalf("DBO avg %v should beat CloudEx-at-max %v", dbo.Latency.Avg, rCx.Latency.Avg)
	}
}

func TestMatchingEngineExecutes(t *testing.T) {
	t.Parallel()
	r := Run(short(DBO, 5))
	if r.Executions == 0 {
		t.Fatal("matching engine produced no fills")
	}
	if r.DataPoints == 0 {
		t.Fatal("no market data generated")
	}
}

func TestLossRecovery(t *testing.T) {
	t.Parallel()
	cfg := short(DBO, 6)
	cfg.LossRate = 0.002
	r := Run(cfg)
	if r.DroppedPackets == 0 {
		t.Skip("seed produced no drops")
	}
	if r.RetxRequests == 0 {
		t.Fatal("drops occurred but no retransmission was requested")
	}
	// Fairness may dip (lost trades / lost triggers) but must stay high:
	// only trades touching a lost packet are affected (Appendix D).
	if r.Fairness < 0.95 {
		t.Fatalf("fairness under 0.2%% loss = %v", r.Fairness)
	}
}

func TestClockDriftHarmless(t *testing.T) {
	t.Parallel()
	cfg := short(DBO, 7)
	cfg.ClockDrift = true
	r := Run(cfg)
	// Drift *rate* (0.02%) scales measured response times by ±2e-4, so
	// only pairs whose RT difference is below ~4ns can invert — the
	// paper's "clock-drift rate is negligible" assumption (§3). Offsets
	// cancel entirely. Anything beyond that tiny band must stay fair.
	if r.Fairness < 0.999 {
		t.Fatalf("fairness with unsynchronized drifting clocks = %v, want ≥ 0.999", r.Fairness)
	}
	noDrift := Run(short(DBO, 7))
	if noDrift.Fairness != 1 {
		t.Fatalf("control run fairness = %v", noDrift.Fairness)
	}
}

func TestShardedOBEquivalentFairness(t *testing.T) {
	t.Parallel()
	single := Run(short(DBO, 8))
	cfg := short(DBO, 8)
	cfg.OBShards = 3
	sharded := Run(cfg)
	if sharded.Fairness != 1 {
		t.Fatalf("sharded fairness = %v", sharded.Fairness)
	}
	if sharded.MasterHeartbeats >= single.MasterHeartbeats {
		t.Fatalf("sharding did not reduce master heartbeat load: %d vs %d",
			sharded.MasterHeartbeats, single.MasterHeartbeats)
	}
}

func TestFBAEliminatesSpeedRaces(t *testing.T) {
	t.Parallel()
	r := Run(short(FBA, 9))
	// Within-batch order is random: pairwise fairness ≈ 0.5.
	if r.Fairness < 0.35 || r.Fairness > 0.65 {
		t.Fatalf("FBA fairness = %v, want ≈0.5", r.Fairness)
	}
	// Latency is dominated by the auction interval.
	if r.Latency.Avg < 200*sim.Microsecond {
		t.Fatalf("FBA avg latency = %v, implausibly low for 1ms auctions", r.Latency.Avg)
	}
}

func TestLibraStochasticFairness(t *testing.T) {
	t.Parallel()
	lib := Run(short(Libra, 10))
	dir := Run(short(Direct, 10))
	if lib.Fairness <= 0.4 {
		t.Fatalf("Libra fairness = %v", lib.Fairness)
	}
	// Libra randomizes away part of direct's static advantage; it should
	// not reach guaranteed fairness.
	if lib.Fairness == 1 {
		t.Fatal("Libra cannot guarantee fairness")
	}
	_ = dir
}

func TestStragglerMitigationCutsTailLatency(t *testing.T) {
	t.Parallel()
	mk := func(threshold sim.Time) Config {
		cfg := short(DBO, 11)
		cfg.N = 4
		// Participant 3 is pathologically slow: 20× path latency.
		cfg.Skew = []float64{1, 1, 20, 1}
		cfg.StragglerRTT = threshold
		return cfg
	}
	slow := Run(mk(0))                     // mitigation off: everyone waits
	fast := Run(mk(300 * sim.Microsecond)) // straggler excluded
	if fast.StragglerEvents == 0 {
		t.Fatal("straggler never detected")
	}
	if fast.Latency.P99 >= slow.Latency.P99 {
		t.Fatalf("mitigation p99 %v should beat no-mitigation p99 %v", fast.Latency.P99, slow.Latency.P99)
	}
	// Fairness for the remaining participants holds; overall fairness
	// may dip only through pairs involving the straggler.
	if fast.Fairness < 0.5 {
		t.Fatalf("fairness with straggler excluded = %v", fast.Fairness)
	}
}

func TestCollectSamples(t *testing.T) {
	t.Parallel()
	cfg := short(DBO, 12)
	cfg.CollectSamples = true
	r := Run(cfg)
	if r.LatencySamples == nil || r.LatencySamples.N() != r.Trades {
		t.Fatal("samples not collected")
	}
	if len(r.LatencySamples.CDF(10)) == 0 {
		t.Fatal("empty CDF")
	}
}

func TestHooksFire(t *testing.T) {
	t.Parallel()
	cfg := short(DBO, 13)
	var deliveries, forwards int
	cfg.Hooks = Hooks{
		OnDeliver: func(mp int, last uint64, at sim.Time) { deliveries++ },
		OnForward: func(mp int, at sim.Time) { forwards++ },
	}
	r := Run(cfg)
	if deliveries == 0 || forwards == 0 {
		t.Fatalf("hooks: %d deliveries, %d forwards", deliveries, forwards)
	}
	_ = r
}

func TestDefaultSkewSpread(t *testing.T) {
	t.Parallel()
	s := DefaultSkew(3, 0.15)
	if s[0] != 0.85 || s[2] != 1.15 {
		t.Fatalf("skew = %v", s)
	}
	if got := DefaultSkew(1, 0.15); got[0] != 1 {
		t.Fatalf("single-MP skew = %v", got)
	}
}

func TestLabVsCloudFairnessShape(t *testing.T) {
	t.Parallel()
	// Table 2 vs Table 3: direct delivery is less unfair on the lab
	// network (small, stable latency differences) than in the cloud.
	lab := short(Direct, 14)
	lab.Trace = trace.Lab(14).Generate()
	lab.Skew = DefaultSkew(5, 0.04)
	rLab := Run(lab)

	cloud := short(Direct, 14)
	rCloud := Run(cloud)

	if rLab.Fairness <= rCloud.Fairness {
		t.Fatalf("lab fairness %v should exceed cloud fairness %v", rLab.Fairness, rCloud.Fairness)
	}
}

func TestHighRTStillMostlyFair(t *testing.T) {
	t.Parallel()
	// Table 4: trades with RT > δ are not guaranteed, but temporal
	// correlation keeps them almost perfectly ordered.
	cfg := short(DBO, 15)
	cfg.RTMin, cfg.RTMax = 30*sim.Microsecond, 35*sim.Microsecond
	r := Run(cfg)
	if r.Fairness < 0.9 {
		t.Fatalf("fairness for RT in [30,35]µs = %v, want ≥ 0.9", r.Fairness)
	}
}
