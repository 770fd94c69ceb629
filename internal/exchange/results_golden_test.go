package exchange

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dbo/internal/sim"
)

// goldenRow is what one seeded run must reproduce exactly. Every field
// is a count or a model-clock reading, so any difference means the
// kernel dispatched some event in a different order, or some component
// drew from an rng it did not draw from before.
type goldenRow struct {
	Name            string   `json:"name"`
	Trades          int      `json:"trades"`
	Lost            int      `json:"lost"`
	FairCorrect     int      `json:"fair_correct"`
	FairTotal       int      `json:"fair_total"`
	LatencyP50      sim.Time `json:"latency_p50_ns"`
	LatencyP99      sim.Time `json:"latency_p99_ns"`
	LatencyMax      sim.Time `json:"latency_max_ns"`
	MaxRTTP50       sim.Time `json:"max_rtt_p50_ns"`
	MaxRTTP99       sim.Time `json:"max_rtt_p99_ns"`
	MaxRTTMax       sim.Time `json:"max_rtt_max_ns"`
	HeartbeatsSent  int      `json:"heartbeats_sent"`
	RetxRequests    int      `json:"retx_requests"`
	DroppedPackets  int      `json:"dropped_packets"`
	Executions      int      `json:"executions"`
	StragglerEvents int      `json:"straggler_events"`
}

type goldenCase struct {
	name string
	cfg  Config
}

// goldenCases covers every scheme (the baselines schedule through the
// same kernel as DBO and have no other pin) on three seeds, plus the
// DBO variants that reach scheduling paths the plain run does not: the
// loss rngs and the retransmission slow path, the self-rescheduling
// jittered tick, the bypass links, drifting RB clocks, and straggler
// exclusion.
func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, s := range []struct {
		name   string
		scheme Scheme
		shards int
	}{
		{"dbo", DBO, 0}, {"dbo-shards3", DBO, 3}, {"direct", Direct, 0},
		{"cloudex", CloudEx, 0}, {"fba", FBA, 0}, {"libra", Libra, 0},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := short(s.scheme, seed)
			cfg.OBShards = s.shards
			cases = append(cases, goldenCase{fmt.Sprintf("%s/seed%d", s.name, seed), cfg})
		}
	}
	variant := func(name string, mod func(*Config)) {
		cfg := short(DBO, 1)
		mod(&cfg)
		cases = append(cases, goldenCase{"dbo-" + name + "/seed1", cfg})
	}
	variant("loss", func(c *Config) { c.LossRate = 0.01 })
	variant("jitter", func(c *Config) { c.TickJitter = 0.3 })
	variant("external-bypass", func(c *Config) { c.ExternalEvery, c.ExternalBypass = 5, true })
	variant("drift", func(c *Config) { c.ClockDrift = true })
	variant("straggler", func(c *Config) { c.StragglerRTT = 70 * sim.Microsecond })
	return cases
}

func goldenRowOf(name string, r *Result) goldenRow {
	return goldenRow{
		Name:   name,
		Trades: r.Trades, Lost: r.Lost,
		FairCorrect: r.FairRatio.Correct, FairTotal: r.FairRatio.Total,
		LatencyP50: r.Latency.P50, LatencyP99: r.Latency.P99, LatencyMax: r.Latency.Max,
		MaxRTTP50: r.MaxRTT.P50, MaxRTTP99: r.MaxRTT.P99, MaxRTTMax: r.MaxRTT.Max,
		HeartbeatsSent: r.HeartbeatsSent, RetxRequests: r.RetxRequests,
		DroppedPackets: r.DroppedPackets, Executions: r.Executions,
		StragglerEvents: r.StragglerEvents,
	}
}

// TestResultsGolden pins every scheme's seeded outputs against a
// checked-in file: a scheduler or plumbing change must reproduce it
// without -update. Regenerate it (go test ./internal/exchange -run
// Golden -update) only for a change that means to move simulated
// results.
func TestResultsGolden(t *testing.T) {
	t.Parallel()
	var rows []goldenRow
	for _, c := range goldenCases() {
		rows = append(rows, goldenRowOf(c.name, Run(c.cfg)))
	}
	got, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "results_golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var wantRows []goldenRow
	if err := json.Unmarshal(want, &wantRows); err != nil {
		t.Fatalf("golden file: %v", err)
	}
	if len(wantRows) != len(rows) {
		t.Fatalf("golden file has %d rows, the case table %d", len(wantRows), len(rows))
	}
	for i := range rows {
		if rows[i] != wantRows[i] {
			t.Errorf("%s diverged from golden:\n got %+v\nwant %+v", rows[i].Name, rows[i], wantRows[i])
		}
	}
	if !t.Failed() {
		t.Fatal("results match row by row but the file's bytes differ; rerun with -update")
	}
}
