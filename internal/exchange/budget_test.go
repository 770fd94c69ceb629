package exchange

import (
	"runtime"
	"testing"

	"dbo/internal/sim"
)

// TestSimCloudAllocBudget holds the simulator to two and a half heap
// objects per scored trade on the benchmark's sim_cloud configuration.
// What is left under the budget is the simulation's output (the trade
// and its race-table entry) and one boxed data point per tick; the
// scheduler, the message plumbing and the matching engine contribute
// nothing per event.
func TestSimCloudAllocBudget(t *testing.T) {
	cfg := Config{Scheme: DBO, Seed: 1, N: 10, CollectSamples: true, Duration: 50 * sim.Millisecond}
	Run(cfg) // warm-up: one-time runtime and package initialisation
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := Run(cfg)
	runtime.ReadMemStats(&after)
	if r.Trades == 0 {
		t.Fatal("no trades scored")
	}
	const budget = 2.5
	perTrade := float64(after.Mallocs-before.Mallocs) / float64(r.Trades)
	t.Logf("%.2f objects per trade over %d trades", perTrade, r.Trades)
	if perTrade > budget {
		t.Fatalf(`%.2f heap objects per trade, budget %.1f. Per-event sites that must stay at zero — profile with
  go test ./internal/exchange -run TestSimCloudAllocBudget -memprofile mem.prof -memprofilerate 1
and look for:
  sim.(*Kernel).At / sim.(*Queue).Push      an object per scheduled event
  netsim.(*Link).Send                       a closure or box per message
  core.(*ReleaseBuffer).sendHeartbeat       a heartbeat boxed into Send(any)
  harness.start emit                        the data point boxed once per link, not once per tick
  ReleaseBuffer.newBatch / OnData           a Batch and its Points per delivery (RecycleBatches off)
  mpSim.onBatch / respond                   a closure per response timer
  lob.(*Book).SubmitTIF                     a resting order or a fills slice per submit (slab and borrowed scratch)
Expected to remain: mpSim.submit (the trade), fairness.Tracker.add.`,
			perTrade, budget)
	}
}
