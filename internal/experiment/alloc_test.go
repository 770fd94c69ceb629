package experiment_test

import (
	"testing"

	"dbo/internal/experiment"
)

// TestPipelineZeroAlloc pins the steady-state allocation budget of the
// tag→enqueue→release path at zero allocs per tick: with the trade
// pool, batch recycling, and the bucketed ordering queue warm, a
// market tick (batch delivery → tag → enqueue → heartbeats → release)
// must not touch the heap. A failure names the regressing configuration; the per-stage breakdown lives in the failure of the
// corresponding unit (wire: TestWireZeroAlloc; queue: core bench).
func TestPipelineZeroAlloc(t *testing.T) {
	cases := []struct {
		stage string
		opts  experiment.PipelineOpts
	}{
		{"tag-enqueue-release/P=100", experiment.PipelineOpts{Participants: 100, Seed: 1}},
		{"tag-enqueue-release/P=8", experiment.PipelineOpts{Participants: 8, Seed: 1}},
	}
	for _, c := range cases {
		p := experiment.NewPipeline(c.opts)
		// Warm until pools, free lists, and queue capacity reach their
		// steady-state high-water marks.
		for i := 0; i < 4096; i++ {
			p.Step()
		}
		if got := testing.AllocsPerRun(2000, p.Step); got != 0 {
			t.Errorf("pipeline stage %s: %.3f allocs/op, want 0 — the zero-allocation tag→enqueue→release budget regressed", c.stage, got)
		}
		if p.Released() == 0 {
			t.Errorf("pipeline stage %s: no trades released; the harness is not exercising the path", c.stage)
		}
	}
}
