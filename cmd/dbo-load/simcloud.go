package main

import (
	"fmt"
	"time"

	"dbo/internal/exchange"
	"dbo/internal/flight"
	"dbo/internal/sim"
)

// simPerWall is how much simulated time sim_cloud runs per second of
// segment budget. The work is fixed by the budget, not by the clock, so
// allocations and every simulated-time output repeat exactly for a
// seed; at the seed's ~200k trades/s a budget second takes about a wall
// second.
const simPerWall = 1.5

// latencyOf reads off a DBO run with samples kept its Eq. 8 latency
// and the part of it DBO is responsible for: latency above the
// per-trade Theorem-3 bound (max participant RTT), quantile by
// quantile. Both are in simulated µs and repeat exactly for a seed.
func latencyOf(r *exchange.Result) (lat, over quantiles) {
	at := func(q float64) (lat, over float64) {
		l := r.LatencySamples.Percentile(q)
		return l.Micros(), (l - r.MaxRTTSamples.Percentile(q)).Micros()
	}
	lat.p50, over.p50 = at(0.50)
	lat.p90, over.p90 = at(0.90)
	lat.p99, over.p99 = at(0.99)
	lat.p999, over.p999 = at(0.999)
	return lat, over
}

// modelSimulated is how much simulated time a live workload's model
// run covers: ~16k trades, enough that its p99 moves by under 0.15% from
// seed to seed, in about a tenth of a wall second.
const modelSimulated = 20 * sim.Second

// modelOverhead is overhead_p50_us and overhead_p99_us on a live
// workload: the simulator's DBO overhead at that workload's N, tick, δ,
// κ and τ. A loopback run has no model clock of its own, and the
// benchmark has every workload report every end-to-end metric; this
// keeps the tightly bounded model-time metric on all five, and gates
// release semantics at millisecond parameters sim_cloud's 40 µs tick
// never visits. It runs once per run, outside every measured window.
func modelOverhead(cfg exchange.Config, seed uint64) quantiles {
	cfg.Scheme, cfg.CollectSamples, cfg.Seed, cfg.Duration = exchange.DBO, true, seed, modelSimulated
	_, over := latencyOf(exchange.Run(cfg))
	return over
}

// runSimCloud is one exchange.Run of the paper's workload (§6.1): DBO,
// ten participants, the cloud RTT trace, default δ/κ/τ.
func runSimCloud(o segOpts) (segment, error) {
	cfg := exchange.Config{Scheme: exchange.DBO, Seed: o.seed, N: 10, CollectSamples: true}

	// Set-up is everything Run does before the first tick matters:
	// trace synthesis, topology and scheme assembly.
	t0 := time.Now()
	probe := cfg
	probe.Duration, probe.Warmup, probe.Drain = sim.Millisecond, sim.Microsecond, sim.Millisecond
	exchange.Run(probe)
	var s segment
	s.setup = time.Since(t0)
	s.build = s.setup

	cfg.Duration = sim.Time(float64(o.dur.Nanoseconds()) * simPerWall)
	if o.tr != nil {
		cfg.Flight = flight.NewRecorder(1 << 18)
	}
	o.tr.startProfile()
	w := openWindow()
	r := exchange.Run(cfg)
	w.close(&s)
	o.tr.stopProfile() // after the window: stopping waits on the profile writer

	s.trades = int64(r.Trades)
	s.fairness = r.Fairness
	s.lat, s.over = latencyOf(r)
	s.tally = tally{
		Attempted: int64(r.Trades + r.Lost),
		Lost:      int64(r.Lost),
		Pairs:     int64(r.FairRatio.Total),
		Unfair:    int64(r.FairRatio.Total - r.FairRatio.Correct),
	}
	s.layer = map[string]float64{
		"exchange.heartbeats_per_trade": float64(r.HeartbeatsSent) / float64(max(r.Trades, 1)),
		"exchange.retx_requests":        float64(r.RetxRequests),
		"exchange.lost":                 float64(r.Lost),
	}
	if cfg.Flight != nil {
		var holds []int64
		for _, ev := range cfg.Flight.Snapshot() {
			if ev.Kind == flight.KindRelease {
				holds = append(holds, ev.Aux)
			}
		}
		q := quantilesOf(holds)
		s.layer["core.ob_hold_p50_us"], s.layer["core.ob_hold_p99_us"] = q.p50, q.p99
	}
	if r.Trades == 0 {
		return s, fmt.Errorf("simulation scored no trades")
	}
	return s, nil
}
