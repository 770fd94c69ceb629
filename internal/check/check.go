// Package check is a deterministic, seeded conformance harness for the
// DBO pipeline: it generates randomized market scenarios (participant
// counts, latency skew, drifting clocks, packet loss, stragglers,
// bursty data-point schedules, sharded ordering buffers), drives each
// through the full exchange simulation, and scores the run against
// machine-checkable oracles derived from the paper's guarantees. Every
// failure carries the scenario seed, so any violation replays exactly.
package check

import (
	"fmt"
	"strings"

	"dbo/internal/exchange"
	"dbo/internal/market"
)

// Report is the outcome of checking one scenario.
type Report struct {
	Scenario Scenario

	Trades               int // trades forwarded to the matching engine
	Pairs                int // LRTF pairs compared (oracle 1)
	StragglerTransitions int // straggler events observed (oracle 5)
	Lost                 int // submitted-but-never-forwarded trades

	Violations []string
	Suppressed int // violations beyond the per-run cap
}

// Ok reports whether every oracle held.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// Err returns nil when the run is clean, otherwise an error listing the
// violations and how to replay the exact scenario.
func (r *Report) Err() error {
	if r.Ok() {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "scenario {%s}: %d violation(s); replay with: go test ./internal/check -run TestSeededScenarios -check.replay=%d",
		r.Scenario, len(r.Violations)+r.Suppressed, r.Scenario.Seed)
	for _, v := range r.Violations {
		b.WriteString("\n  ")
		b.WriteString(v)
	}
	if r.Suppressed > 0 {
		fmt.Fprintf(&b, "\n  ... and %d more", r.Suppressed)
	}
	return fmt.Errorf("%s", b.String())
}

// Run generates the scenario for seed and checks it.
func Run(seed uint64) *Report { return RunScenario(Generate(seed)) }

// RunScenario executes one scenario under the full oracle set. When the
// scenario shards the ordering buffer, the identical workload is re-run
// on a single OB and the two forwarded orders are compared (oracle 6):
// every RB-side random stream is derived from the seed alone, so the
// submissions are bit-identical and only the ordering layer differs.
func RunScenario(s Scenario) *Report {
	cfg := s.Config()
	c := newChecker(s)
	c.install(&cfg)
	res := exchange.Run(cfg)
	c.finish(res)

	rep := &Report{
		Scenario:             s,
		Trades:               len(res.TradeLog),
		Pairs:                c.pairs,
		StragglerTransitions: len(c.events),
		Lost:                 res.Lost,
		Violations:           c.v.list,
		Suppressed:           c.v.n - len(c.v.list),
	}

	if s.Shards > 1 {
		single := s
		single.Shards = 1
		cfg2 := single.Config()
		c2 := newChecker(single)
		c2.install(&cfg2)
		res2 := exchange.Run(cfg2)
		c2.finish(res2)
		for _, v := range c2.v.list {
			rep.Violations = append(rep.Violations, "single-OB control: "+v)
		}
		rep.Suppressed += c2.v.n - len(c2.v.list)
		checkEquivalence(rep, res.TradeLog, res2.TradeLog, s.Seed)
	}
	return rep
}

// checkEquivalence is oracle 6 (§5.2): the sharded OB must forward the
// exact total order the single OB does.
func checkEquivalence(rep *Report, sharded, single []*market.Trade, seed uint64) {
	if len(sharded) != len(single) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(
			"[oracle-6] seed=%d: sharded OB forwarded %d trades, single OB %d", seed, len(sharded), len(single)))
		return
	}
	for i := range sharded {
		a, b := sharded[i], single[i]
		if a.Key() != b.Key() || a.DC != b.DC {
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"[oracle-6] seed=%d: orders diverge at position %d: sharded %v DC %v vs single %v DC %v",
				seed, i, a.Key(), a.DC, b.Key(), b.DC))
			return
		}
	}
}
