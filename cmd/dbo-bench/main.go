// Command dbo-bench regenerates the paper's tables and figures (and the
// DESIGN.md ablations) and prints them in the paper's row format.
//
// Usage:
//
//	dbo-bench [-exp all|table2|table3|table4|fig2|fig7|fig10|fig11|fig12|fig13|tau|kappa|straggler|shards]
//	          [-seed N] [-ms simulated-milliseconds]
//	dbo-bench -json [-short] [-out FILE|-] [-compare BASELINE] [-seed N]
//
// With -json it instead emits one machine-readable benchmark
// trajectory snapshot (BENCH_<date>.json; schema in
// internal/experiment): tag→enqueue→release throughput and allocs/op,
// seeded end-to-end simulation trades/sec with hold-time quantiles, and
// wire codec throughput. -compare checks the snapshot against a
// committed baseline of the same schema and exits 1 on regression (any
// allocs/op increase, or a >20% trades/sec drop) or on a baseline it
// cannot read. An unknown -exp exits 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dbo/internal/experiment"
	"dbo/internal/sim"
)

type runner struct {
	name string
	desc string
	run  func(experiment.Opts, io.Writer)
}

var runners = []runner{
	{"table2", "bare-metal fairness & latency", func(o experiment.Opts, w io.Writer) { experiment.Table2(o).Render(w) }},
	{"table3", "cloud fairness & latency", func(o experiment.Opts, w io.Writer) { experiment.Table3(o).Render(w) }},
	{"table4", "fairness for RT > δ", func(o experiment.Opts, w io.Writer) { experiment.Table4(o).Render(w) }},
	{"fig2", "CloudEx spike timeline", func(o experiment.Opts, w io.Writer) { experiment.Figure2(o).Render(w) }},
	{"fig7", "batching+pacing drain", func(o experiment.Opts, w io.Writer) { experiment.Figure7(o).Render(w) }},
	{"fig10", "latency CDFs per DBO config", func(o experiment.Opts, w io.Writer) { experiment.Figure10(o).Render(w) }},
	{"fig11", "network trace", func(o experiment.Opts, w io.Writer) { experiment.Figure11(o).Render(w) }},
	{"fig12", "latency vs #participants", func(o experiment.Opts, w io.Writer) { experiment.Figure12(o).Render(w) }},
	{"fig13", "CloudEx vs DBO frontier", func(o experiment.Opts, w io.Writer) { experiment.Figure13(o).Render(w) }},
	{"tau", "ablation: heartbeat period", func(o experiment.Opts, w io.Writer) { experiment.AblationTau(o).Render(w) }},
	{"kappa", "ablation: pacing gain", func(o experiment.Opts, w io.Writer) { experiment.AblationKappa(o).Render(w) }},
	{"straggler", "ablation: straggler mitigation", func(o experiment.Opts, w io.Writer) { experiment.AblationStraggler(o).Render(w) }},
	{"shards", "ablation: OB sharding", func(o experiment.Opts, w io.Writer) { experiment.AblationShards(o).Render(w) }},
	{"sync", "extension: sync-assisted slow trades", func(o experiment.Opts, w io.Writer) { experiment.AblationSync(o).Render(w) }},
	{"external", "extension: external data streams", func(o experiment.Opts, w io.Writer) { experiment.ExternalStreams(o).Render(w) }},
	{"pnl", "extension: who wins the races", func(o experiment.Opts, w io.Writer) { experiment.SpeedPnL(o).Render(w) }},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dbo-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run (or 'all'); one of: "+names())
	seed := fs.Uint64("seed", 1, "deterministic seed")
	ms := fs.Int64("ms", 0, "override simulated duration in milliseconds (0 = experiment default)")
	jsonMode := fs.Bool("json", false, "emit a BENCH_<date>.json trajectory snapshot instead of tables")
	short := fs.Bool("short", false, "with -json: reduced iteration counts (CI smoke)")
	out := fs.String("out", "", "with -json: output path ('-' = stdout; default BENCH_<date>.json)")
	compare := fs.String("compare", "", "with -json: baseline BENCH_*.json; exit 1 on regression")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *jsonMode {
		return runJSON(*seed, *short, *out, *compare, stdout, stderr)
	}

	opts := experiment.Opts{Seed: *seed, Duration: sim.Time(*ms) * sim.Millisecond}
	selected := strings.Split(*exp, ",")
	any := false
	for _, r := range runners {
		if *exp != "all" && !contains(selected, r.name) {
			continue
		}
		any = true
		start := time.Now()
		r.run(opts, stdout)
		fmt.Fprintf(stdout, "  [%s: %s in %v]\n\n", r.name, r.desc, time.Since(start).Round(time.Millisecond))
	}
	if !any {
		fmt.Fprintf(stderr, "unknown experiment %q; available: %s\n", *exp, names())
		return 2
	}
	return 0
}

// runJSON produces one benchmark trajectory snapshot and optionally
// gates it against a committed baseline.
func runJSON(seed uint64, short bool, out, compare string, stdout, stderr io.Writer) int {
	date := time.Now().Format("2006-01-02")
	rep := experiment.RunBench(experiment.BenchOpts{
		Seed:  seed,
		Short: short,
		Date:  date,
		Now:   func() int64 { return time.Now().UnixNano() },
	})
	b, err := experiment.EncodeBenchReport(rep)
	if err != nil {
		fmt.Fprintf(stderr, "dbo-bench: encode: %v\n", err)
		return 1
	}
	if out == "-" {
		if _, err := stdout.Write(b); err != nil {
			fmt.Fprintf(stderr, "dbo-bench: %v\n", err)
			return 1
		}
	} else {
		if out == "" {
			out = "BENCH_" + date + ".json"
		}
		if err := os.WriteFile(out, b, 0o644); err != nil {
			fmt.Fprintf(stderr, "dbo-bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", out)
		fmt.Fprintf(stdout, "  pipeline:  %11.0f trades/s  %7.1f ns/op  %5.2f allocs/op\n",
			rep.Pipeline.TradesPerSec, rep.Pipeline.NsPerOp, rep.Pipeline.AllocsPerOp)
		fmt.Fprintf(stdout, "  sim:       %11.0f trades/s  (%d trades, %d simulated ms)\n",
			rep.Sim.TradesPerSec, rep.Sim.Trades, int64(rep.Sim.Duration/sim.Millisecond))
		fmt.Fprintf(stdout, "  wire:      %8.1f enc MB/s  %8.1f dec MB/s  %5.2f allocs/op\n",
			rep.Wire.EncodeMBPerSec, rep.Wire.DecodeMBPerSec, rep.Wire.AllocsPerOp)
	}
	if compare != "" {
		raw, err := os.ReadFile(compare)
		if err != nil {
			fmt.Fprintf(stderr, "dbo-bench: %v\n", err)
			return 1
		}
		base, err := experiment.ParseBenchReport(raw)
		if err != nil {
			fmt.Fprintf(stderr, "dbo-bench: baseline: %v\n", err)
			return 1
		}
		if regs := experiment.CompareBenchReports(base, rep, 0.20); len(regs) > 0 {
			for _, r := range regs {
				fmt.Fprintf(stderr, "REGRESSION: %s\n", r)
			}
			return 1
		}
		fmt.Fprintf(stdout, "no regression vs %s\n", compare)
	}
	return 0
}

func names() string {
	out := make([]string, len(runners))
	for i, r := range runners {
		out[i] = r.name
	}
	return strings.Join(out, "|")
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}
