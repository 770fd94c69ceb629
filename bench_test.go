// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment at a
// reduced (but statistically meaningful) duration per iteration and
// reports the headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// doubles as the reproduction harness. cmd/dbo-bench prints the same
// experiments at full scale in the paper's row format (and, with
// -json, as a machine-readable BENCH_<date>.json snapshot).
package dbo_test

import (
	"slices"
	"testing"

	"dbo/internal/exchange"
	"dbo/internal/experiment"
	"dbo/internal/sim"
)

// benchOpts shrinks experiments so a -bench sweep stays tractable while
// preserving the shapes (≥ thousands of trades per run).
func benchOpts(seed uint64) experiment.Opts {
	return experiment.Opts{Seed: seed, Duration: 50 * sim.Millisecond}
}

// benchMetricNames declares, per benchmark, the exact custom metrics it
// reports, in order. benchAgg.report enforces the declaration at bench
// time and TestBenchMetricNamesStable pins it, so downstream tooling
// that greps -bench output by metric name never silently loses a
// series to a rename.
var benchMetricNames = map[string][]string{
	"BenchmarkTable2":              {"direct_fair_%", "dbo_avg_µs", "dbo_p999_µs"},
	"BenchmarkTable3":              {"direct_fair_%", "dbo_fair_%", "dbo_p999_µs"},
	"BenchmarkTable4":              {"dbo_fair_rt10_15", "dbo_fair_rt35_40", "direct_fair_rt10_15"},
	"BenchmarkFigure2":             {"cloudex_fair_%", "cloudex_overruns", "dbo_fair_%"},
	"BenchmarkFigure7":             {"drain_slope", "theory_slope", "peak_queue"},
	"BenchmarkFigure11":            {"rtt_mean_µs", "rtt_max_µs"},
	"BenchmarkFigure12":            {"dbo_avg_n10_µs", "dbo_avg_n90_µs"},
	"BenchmarkFigure13":            {"dbo60_fair_%", "dbo60_avg_µs"},
	"BenchmarkExtensionSync":       {"plain_fair", "assisted_fair"},
	"BenchmarkExtensionExternal":   {"bypass_fair", "serialized_fair"},
	"BenchmarkExtensionPnL":        {"direct_fastest_wins_%", "dbo_fastest_wins_%"},
	"BenchmarkSimulatorThroughput": {"trades/s"},
	"BenchmarkPipeline":            {"trades/s", "allocs/op_measured"},
}

// benchAgg accumulates metric observations across every benchmark
// iteration and reports the per-iteration mean, instead of whichever
// iteration happened to run last. The experiments are deterministic in
// their seed today, so mean == last; the aggregation keeps the metrics
// honest if an experiment ever becomes iteration-dependent.
type benchAgg struct {
	b     *testing.B
	names []string
	sums  map[string]float64
	count map[string]float64
}

func newBenchAgg(b *testing.B) *benchAgg {
	return &benchAgg{b: b, sums: map[string]float64{}, count: map[string]float64{}}
}

func (a *benchAgg) add(name string, v float64) {
	if _, ok := a.sums[name]; !ok {
		a.names = append(a.names, name)
	}
	a.sums[name] += v
	a.count[name]++
}

// report emits the means, after checking the observed metric set
// against the benchmark's declaration in benchMetricNames.
func (a *benchAgg) report() {
	if want := benchMetricNames[a.b.Name()]; !slices.Equal(a.names, want) {
		a.b.Fatalf("metric names drifted: reported %q, declared %q — update benchMetricNames intentionally", a.names, want)
	}
	for _, n := range a.names {
		a.b.ReportMetric(a.sums[n]/a.count[n], n)
	}
}

// TestBenchMetricNamesStable pins the metric vocabulary: renaming or
// dropping a -bench series requires editing both benchMetricNames and
// this golden list, so it cannot happen as a silent side effect.
func TestBenchMetricNamesStable(t *testing.T) {
	golden := []string{
		"BenchmarkExtensionExternal: bypass_fair serialized_fair",
		"BenchmarkExtensionPnL: direct_fastest_wins_% dbo_fastest_wins_%",
		"BenchmarkExtensionSync: plain_fair assisted_fair",
		"BenchmarkFigure11: rtt_mean_µs rtt_max_µs",
		"BenchmarkFigure12: dbo_avg_n10_µs dbo_avg_n90_µs",
		"BenchmarkFigure13: dbo60_fair_% dbo60_avg_µs",
		"BenchmarkFigure2: cloudex_fair_% cloudex_overruns dbo_fair_%",
		"BenchmarkFigure7: drain_slope theory_slope peak_queue",
		"BenchmarkPipeline: trades/s allocs/op_measured",
		"BenchmarkSimulatorThroughput: trades/s",
		"BenchmarkTable2: direct_fair_% dbo_avg_µs dbo_p999_µs",
		"BenchmarkTable3: direct_fair_% dbo_fair_% dbo_p999_µs",
		"BenchmarkTable4: dbo_fair_rt10_15 dbo_fair_rt35_40 direct_fair_rt10_15",
	}
	var got []string
	for bench, names := range benchMetricNames {
		line := bench + ":"
		seen := map[string]bool{}
		for _, n := range names {
			if n == "" || seen[n] {
				t.Errorf("%s declares empty or duplicate metric %q", bench, n)
			}
			seen[n] = true
			line += " " + n
		}
		got = append(got, line)
	}
	slices.Sort(got)
	if !slices.Equal(got, golden) {
		t.Errorf("benchmark metric names drifted — update the golden list intentionally:\ngot:\n  %v\nwant:\n  %v", got, golden)
	}
}

func BenchmarkTable2(b *testing.B) {
	a := newBenchAgg(b)
	for i := 0; i < b.N; i++ {
		r := experiment.Table2(benchOpts(1))
		a.add("direct_fair_%", 100*r.Rows[0].Fairness)
		a.add("dbo_avg_µs", r.Rows[2].Latency.Avg.Micros())
		a.add("dbo_p999_µs", r.Rows[2].Latency.P999.Micros())
	}
	a.report()
}

func BenchmarkTable3(b *testing.B) {
	a := newBenchAgg(b)
	for i := 0; i < b.N; i++ {
		r := experiment.Table3(benchOpts(1))
		a.add("direct_fair_%", 100*r.Rows[0].Fairness)
		a.add("dbo_fair_%", 100*r.Rows[2].Fairness)
		a.add("dbo_p999_µs", r.Rows[2].Latency.P999.Micros())
	}
	a.report()
}

func BenchmarkTable4(b *testing.B) {
	a := newBenchAgg(b)
	for i := 0; i < b.N; i++ {
		r := experiment.Table4(benchOpts(1))
		a.add("dbo_fair_rt10_15", r.DBO[0])
		a.add("dbo_fair_rt35_40", r.DBO[len(r.DBO)-1])
		a.add("direct_fair_rt10_15", r.Direct[0])
	}
	a.report()
}

func BenchmarkFigure2(b *testing.B) {
	a := newBenchAgg(b)
	for i := 0; i < b.N; i++ {
		r := experiment.Figure2(benchOpts(2))
		a.add("cloudex_fair_%", 100*r.CloudExFairness)
		a.add("cloudex_overruns", float64(r.CloudExOverruns))
		a.add("dbo_fair_%", 100*r.DBOFairness)
	}
	a.report()
}

func BenchmarkFigure7(b *testing.B) {
	a := newBenchAgg(b)
	for i := 0; i < b.N; i++ {
		r := experiment.Figure7(experiment.Opts{Seed: 3})
		a.add("drain_slope", r.DrainSlope)
		a.add("theory_slope", r.Kappa/(1+r.Kappa))
		a.add("peak_queue", float64(r.PeakQueue))
	}
	a.report()
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.Figure10(benchOpts(4))
	}
}

func BenchmarkFigure11(b *testing.B) {
	a := newBenchAgg(b)
	for i := 0; i < b.N; i++ {
		r := experiment.Figure11(experiment.Opts{Seed: 5})
		a.add("rtt_mean_µs", r.Stats.Mean.Micros())
		a.add("rtt_max_µs", r.Stats.Max.Micros())
	}
	a.report()
}

func BenchmarkFigure12(b *testing.B) {
	a := newBenchAgg(b)
	for i := 0; i < b.N; i++ {
		r := experiment.Figure12(experiment.Opts{Seed: 6, Duration: 20 * sim.Millisecond})
		a.add("dbo_avg_n10_µs", r.DBOMean[0])
		a.add("dbo_avg_n90_µs", r.DBOMean[len(r.DBOMean)-1])
	}
	a.report()
}

func BenchmarkFigure13(b *testing.B) {
	a := newBenchAgg(b)
	for i := 0; i < b.N; i++ {
		r := experiment.Figure13(experiment.Opts{Seed: 7, Duration: 20 * sim.Millisecond})
		last := r.Points[len(r.Points)-1]
		a.add("dbo60_fair_%", 100*last.Fairness)
		a.add("dbo60_avg_µs", last.Mean)
	}
	a.report()
}

func BenchmarkAblationTau(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.AblationTau(experiment.Opts{Seed: 8, Duration: 20 * sim.Millisecond})
	}
}

func BenchmarkAblationKappa(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.AblationKappa(experiment.Opts{Seed: 9, Duration: 20 * sim.Millisecond})
	}
}

func BenchmarkAblationStraggler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.AblationStraggler(experiment.Opts{Seed: 10, Duration: 20 * sim.Millisecond})
	}
}

func BenchmarkAblationShards(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.AblationShards(experiment.Opts{Seed: 11, Duration: 15 * sim.Millisecond})
	}
}

func BenchmarkExtensionSync(b *testing.B) {
	a := newBenchAgg(b)
	for i := 0; i < b.N; i++ {
		r := experiment.AblationSync(experiment.Opts{Seed: 12, Duration: 30 * sim.Millisecond})
		a.add("plain_fair", r.PlainFairness)
		a.add("assisted_fair", r.AssistedFairness)
	}
	a.report()
}

func BenchmarkExtensionExternal(b *testing.B) {
	a := newBenchAgg(b)
	for i := 0; i < b.N; i++ {
		r := experiment.ExternalStreams(experiment.Opts{Seed: 13, Duration: 30 * sim.Millisecond})
		a.add("bypass_fair", r.BypassFairness)
		a.add("serialized_fair", r.SerializedFairness)
	}
	a.report()
}

func BenchmarkExtensionPnL(b *testing.B) {
	a := newBenchAgg(b)
	for i := 0; i < b.N; i++ {
		r := experiment.SpeedPnL(experiment.Opts{Seed: 14, Duration: 30 * sim.Millisecond})
		a.add("direct_fastest_wins_%", 100*r.FastestWinsDirect)
		a.add("dbo_fastest_wins_%", 100*r.FastestWinsDBO)
	}
	a.report()
}

// BenchmarkSimulatorThroughput measures raw harness speed: simulated
// trades processed per second of wall time (useful when sizing longer
// reproductions). The rate is computed over the whole run, so it is an
// aggregate by construction; the agg only validates the metric name.
func BenchmarkSimulatorThroughput(b *testing.B) {
	a := newBenchAgg(b)
	trades := 0
	for i := 0; i < b.N; i++ {
		r := exchange.Run(exchange.Config{
			Scheme:   exchange.DBO,
			Seed:     uint64(i),
			N:        10,
			Duration: 20 * sim.Millisecond,
			Warmup:   2 * sim.Millisecond,
			Drain:    10 * sim.Millisecond,
		})
		trades += r.Trades
	}
	a.add("trades/s", float64(trades)/b.Elapsed().Seconds())
	a.report()
}

// BenchmarkPipeline measures the tag→enqueue→release micro-benchmark
// (the BENCH_*.json pipeline section) under go test -bench.
func BenchmarkPipeline(b *testing.B) {
	a := newBenchAgg(b)
	res := experiment.RunPipelineBench(
		experiment.PipelineOpts{Seed: 1},
		b.N,
		func() int64 { return int64(b.Elapsed()) },
	)
	a.add("trades/s", res.TradesPerSec)
	a.add("allocs/op_measured", res.AllocsPerOp)
	a.report()
}
