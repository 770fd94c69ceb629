package exchange

import (
	"runtime"
	"testing"

	"dbo/internal/sim"
)

// TestRunAllocBudget holds the simulator to a fiftieth of a heap object
// per scored trade on the benchmark's sim_cloud configuration (DBO, ten
// participants, the cloud RTT trace, default δ/κ/τ), over one Run of a
// fixed simulated second. What is left under the budget is the Run's
// set-up (trace, topology, scheme), the chunks of the trade arena (one
// per 512 trades) and of the fairness tracker (one per 1024 outcomes),
// and the amortized growth of the slices that grow with the run;
// the scheduler, the message plumbing, the matching engine and the
// scoring contribute nothing per event. Not parallel: the count is the
// process's.
func TestRunAllocBudget(t *testing.T) {
	cfg := Config{Scheme: DBO, Seed: 1, N: 10, CollectSamples: true, Duration: sim.Second}
	warm := cfg
	warm.Duration = 10 * sim.Millisecond
	Run(warm) // one-time runtime and package initialisation
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := Run(cfg)
	runtime.ReadMemStats(&after)
	if r.Trades == 0 {
		t.Fatal("no trades scored")
	}
	const budget = 0.02
	perTrade := float64(after.Mallocs-before.Mallocs) / float64(r.Trades)
	t.Logf("%.4f objects per trade over %d trades", perTrade, r.Trades)
	if perTrade > budget {
		t.Fatalf(`%.4f heap objects per trade, budget %.2f. Per-event sites that must stay at zero — profile with
  go test ./internal/exchange -run TestRunAllocBudget -memprofile mem.prof -memprofilerate 1
and look for:
  mpSim.submit                              a trade per submission (it comes from h.trades, the arena)
  fairness.(*Tracker).add                   a slice per race (outcomes go into 1024-outcome chunks, grouped when it scores)
  harness.start emit / onUpstream           a data point boxed per tick or per retransmit (links carry &h.genPoints[i])
  sim.(*Kernel).At / sim.(*Queue).Push      an object per scheduled event
  netsim.(*Link).Send                       a closure or box per message
  core.(*ReleaseBuffer).sendHeartbeat       a heartbeat boxed into Send(any)
  ReleaseBuffer.newBatch / OnData           a Batch and its Points per delivery (RecycleBatches off)
  mpSim.onBatch / respond                   a closure per response timer
  lob.(*Book).SubmitTIF                     a resting order or a fills slice per submit (slab and borrowed scratch)
Expected to remain: Run's set-up, market.(*TradeArena).New (its 512-trade chunk, 1/512 ≈ 0.002)
and fairness.(*Tracker).add (its 1024-outcome chunk, ≈ 0.001).`,
			perTrade, budget)
	}
}
