package experiment_test

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dbo/internal/experiment"
	"dbo/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenReport is a fully-populated report with fixed values; it pins
// both the JSON field names and the encoder's formatting.
func goldenReport() *experiment.BenchReport {
	return &experiment.BenchReport{
		Schema:    experiment.BenchSchemaVersion,
		Date:      "2026-01-02",
		Seed:      7,
		GoVersion: "go1.99",
		GOOS:      "linux",
		GOARCH:    "amd64",
		Short:     true,
		Pipeline: experiment.PipelineResult{
			Participants: 100,
			Trades:       12345,
			TradesPerSec: 1.75e6,
			NsPerOp:      571.4,
			AllocsPerOp:  0,
			HoldP50:      20 * sim.Microsecond,
			HoldP99:      20 * sim.Microsecond,
		},
		Sim: experiment.SimBenchResult{
			Duration:     50 * sim.Millisecond,
			Trades:       4321,
			TradesPerSec: 9.5e5,
			HoldP50:      31 * sim.Microsecond,
			HoldP99:      58 * sim.Microsecond,
		},
		Wire: experiment.WireBenchResult{
			EncodeNsPerOp:  4.2,
			DecodeNsPerOp:  5.1,
			EncodeMBPerSec: 11000.5,
			DecodeMBPerSec: 9000.25,
			AllocsPerOp:    0,
		},
	}
}

func TestBenchReportRoundTrip(t *testing.T) {
	want := goldenReport()
	b, err := experiment.EncodeBenchReport(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := experiment.ParseBenchReport(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the report:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestBenchReportGolden pins the on-disk BENCH_*.json layout: any field
// rename, retyping, or formatting change shows up as a golden diff and
// must come with a BenchSchemaVersion bump.
func TestBenchReportGolden(t *testing.T) {
	b, err := experiment.EncodeBenchReport(goldenReport())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "bench_golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/experiment -run TestBenchReportGolden -update-golden)", err)
	}
	if string(b) != string(want) {
		t.Fatalf("BENCH schema drifted from %s — bump BenchSchemaVersion and regenerate with -update-golden.\ngot:\n%s\nwant:\n%s", path, b, want)
	}
}

func TestBenchReportSchemaMismatch(t *testing.T) {
	rep := goldenReport()
	rep.Schema = experiment.BenchSchemaVersion + 1
	b, err := experiment.EncodeBenchReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := experiment.ParseBenchReport(b); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("want schema-version error, got %v", err)
	}
	if _, err := experiment.ParseBenchReport([]byte("{")); err == nil {
		t.Fatal("want parse error on truncated JSON")
	}
}

func TestCompareBenchReports(t *testing.T) {
	base := goldenReport()
	cases := []struct {
		name   string
		mutate func(*experiment.BenchReport)
		want   string // substring of the expected regression, "" = pass
	}{
		{"identical", func(r *experiment.BenchReport) {}, ""},
		{"pipeline-allocs-increase", func(r *experiment.BenchReport) { r.Pipeline.AllocsPerOp = 0.5 }, "pipeline allocs/op"},
		{"pipeline-allocs-noise-tolerated", func(r *experiment.BenchReport) { r.Pipeline.AllocsPerOp = 1e-5 }, ""},
		{"wire-allocs-increase", func(r *experiment.BenchReport) { r.Wire.AllocsPerOp = 1 }, "wire allocs/op"},
		{"pipeline-slowdown-beyond-tol", func(r *experiment.BenchReport) { r.Pipeline.TradesPerSec *= 0.7 }, "pipeline trades/sec"},
		{"pipeline-slowdown-within-tol", func(r *experiment.BenchReport) { r.Pipeline.TradesPerSec *= 0.9 }, ""},
		{"sim-slowdown-beyond-tol", func(r *experiment.BenchReport) { r.Sim.TradesPerSec *= 0.5 }, "sim trades/sec"},
		{"faster-is-fine", func(r *experiment.BenchReport) { r.Pipeline.TradesPerSec *= 2; r.Sim.TradesPerSec *= 2 }, ""},
	}
	for _, c := range cases {
		next := goldenReport()
		c.mutate(next)
		regs := experiment.CompareBenchReports(base, next, 0.20)
		switch {
		case c.want == "" && len(regs) != 0:
			t.Errorf("%s: unexpected regressions %v", c.name, regs)
		case c.want != "" && len(regs) != 1:
			t.Errorf("%s: want one regression containing %q, got %v", c.name, c.want, regs)
		case c.want != "" && !strings.Contains(regs[0], c.want):
			t.Errorf("%s: regression %q does not mention %q", c.name, regs[0], c.want)
		}
	}
}

// TestRunBenchShort runs the CI-smoke benchmark end to end (the same
// path `dbo-bench -json -short` takes) and checks the snapshot is
// parseable and non-degenerate: every section must report throughput.
func TestRunBenchShort(t *testing.T) {
	rep := experiment.RunBench(experiment.BenchOpts{
		Seed:  1,
		Short: true,
		Date:  "2026-01-02",
		Now:   func() int64 { return time.Now().UnixNano() },
	})
	b, err := experiment.EncodeBenchReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := experiment.ParseBenchReport(b)
	if err != nil {
		t.Fatalf("dbo-bench -json output does not parse: %v", err)
	}
	if got.Pipeline.TradesPerSec <= 0 || got.Pipeline.Trades == 0 {
		t.Errorf("pipeline section degenerate: %+v", got.Pipeline)
	}
	if got.Sim.TradesPerSec <= 0 || got.Sim.Trades == 0 {
		t.Errorf("sim section degenerate on the 50ms seeded run: %+v", got.Sim)
	}
	if got.Sim.Duration != 50*sim.Millisecond {
		t.Errorf("short sim horizon = %v, want 50ms", got.Sim.Duration)
	}
	if got.Wire.EncodeMBPerSec <= 0 || got.Wire.DecodeMBPerSec <= 0 {
		t.Errorf("wire section degenerate: %+v", got.Wire)
	}
	// ReadMemStats counts whole-process mallocs, so a stray background
	// runtime allocation can surface as ~1e-5 allocs/op here; the exact
	// zero budget is pinned by TestPipelineZeroAlloc/TestWireZeroAlloc.
	if got.Pipeline.AllocsPerOp > 0.01 {
		t.Errorf("pipeline allocs/op = %v, want ~0", got.Pipeline.AllocsPerOp)
	}
	if got.Wire.AllocsPerOp > 0.01 {
		t.Errorf("wire allocs/op = %v, want ~0", got.Wire.AllocsPerOp)
	}
}
