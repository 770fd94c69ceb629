// Command dbo-load is the repository's benchmark: five workloads — the
// seeded simulation, the in-process pipeline, and three live loopback
// socket workloads — measured end to end, with a per-layer ledger from a
// separate traced run and isolated per-layer rows. README.md defines
// every metric; BENCHMARK.json fixes names, units and regression bounds.
//
// Usage:
//
//	go run ./cmd/dbo-load run    [-seed N] [-workload W] [-seconds S] [-json FILE]
//	go run ./cmd/dbo-load trace  [-seed N] [-workload W] [-seconds S] [-spans FILE]
//	go run ./cmd/dbo-load layers [-layer L] [-seconds S]
//	go run ./cmd/dbo-load repeat -n K [-seed N] [-workload W] [-seconds S]
//	go run ./cmd/dbo-load --workload W --seed N --seconds S --trace 0|1
//
// The last form is the benchmark driver's contract: one workload, and
// as the last line of standard output one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: dbo-load run|trace|layers|repeat [flags]   (see the package comment)")
		return 2
	}
	cmd := args[0]
	if strings.HasPrefix(cmd, "-") {
		cmd = "driver"
	} else {
		args = args[1:]
	}
	fs := flag.NewFlagSet("dbo-load "+cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	only := fs.String("workload", "", "run one workload (default: all)")
	seconds := fs.Float64("seconds", defaultSeconds, "measured seconds per workload, split over its segments")
	jsonOut := fs.String("json", "", "run: also write the full report here")
	spansOut := fs.String("spans", "", "trace: write pipeline_full's verbatim spans here as NDJSON")
	layer := fs.String("layer", "", "layers: run one row (default: all)")
	n := fs.Int("n", 2, "repeat: sets of runs")
	traced := fs.Int("trace", 0, "driver: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "dbo-load %s: unexpected argument %q\n", cmd, fs.Arg(0))
		return 2
	}
	var ws []workload
	if *only == "" {
		ws = workloads
	} else if w, ok := workloadByName(*only); ok {
		ws = []workload{w}
	} else {
		fmt.Fprintf(stderr, "dbo-load: unknown workload %q\n", *only)
		return 2
	}

	env := readEnv()
	fmt.Fprintln(stdout, env)
	var err error
	switch cmd {
	case "run":
		err = cmdRun(stdout, ws, *seed, *seconds, *jsonOut, env)
	case "trace":
		err = cmdTrace(stdout, ws, *seed, *seconds, *spansOut, env)
	case "layers":
		err = cmdLayers(stdout, *layer, *seconds)
	case "repeat":
		err = cmdRepeat(stdout, ws, *seed, *seconds, *n, env)
	case "driver":
		if len(ws) != 1 {
			fmt.Fprintln(stderr, "dbo-load: the driver form needs --workload")
			return 2
		}
		err = cmdDriver(stdout, ws[0], *seed, *seconds, *traced != 0, env)
	default:
		fmt.Fprintf(stderr, "dbo-load: unknown command %q\n", cmd)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "dbo-load:", err)
		return 1
	}
	return 0
}

const (
	// defaultSeconds is BENCHMARK.json's run_seconds.
	defaultSeconds = 12
	// measuredSegments is how many segments a headline run measures (after
	// one discarded warm-up): the reported value is their median. At the
	// default that is six segments of 2 s.
	measuredSegments = 6
	// tracedShare: a traced run spends 1/tracedShare of -seconds on its
	// traced segment and as much again on the untraced baseline beside
	// it; at the default that is 3 s each, and all five workloads trace
	// in about 45 s. The driver's traced form adds the isolated rows,
	// on a third of -seconds.
	tracedShare = 4
)

// errFailedCheck is returned when a workload's outputs fail the
// checker; the command still prints everything it measured.
type errFailedCheck struct{ names []string }

func (e errFailedCheck) Error() string {
	return "output check failed on " + strings.Join(e.names, ", ")
}

func cmdRun(out io.Writer, ws []workload, seed uint64, seconds float64, jsonPath string, env *envBlock) error {
	report := struct {
		Env       *envBlock   `json:"env"`
		Seed      uint64      `json:"seed"`
		EndToEnd  []metricDef `json:"end_to_end"`
		Workloads []result    `json:"workloads"`
	}{Env: env, Seed: seed, EndToEnd: endToEnd}
	var bad []string
	for _, w := range ws {
		r, err := measure(w, seed, seconds, env)
		if err != nil {
			return err
		}
		if len(ws) == 1 {
			r.Layer["bench.peak_rss_mb"] = peakRSSMB()
		}
		printResult(out, r)
		if !r.Correct {
			bad = append(bad, w.name)
		}
		report.Workloads = append(report.Workloads, r)
	}
	if jsonPath != "" {
		b, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(bad) > 0 {
		return errFailedCheck{bad}
	}
	return nil
}

func printResult(out io.Writer, r result) {
	fmt.Fprintf(out, "\n%s — %d segments of %.1fs, median (min … max)\n  why: %s\n", r.Workload, r.Segments, r.SegmentS, r.Why)
	for _, d := range endToEnd {
		s := r.Metrics[d.Name]
		fmt.Fprintf(out, "  %-18s %14.4f %-6s (%.4f … %.4f)\n", d.Name, s.Median, d.Unit, s.Min, s.Max)
	}
	for _, row := range traceRows {
		if v, ok := r.Layer[row.name]; ok {
			fmt.Fprintf(out, "  %-22s %10.4f %-6s per-layer, not gated\n", row.name, v, row.unit)
		}
	}
	t := r.Tally
	verdict := "ok"
	if !r.Correct {
		verdict = "FAILED"
	}
	fmt.Fprintf(out, "  check %s: attempted=%d lost=%d misordered=%d unfair=%d unreported=%d failed_ratio=%.6f; fairness pairs=%d beyond_horizon=%d\n",
		verdict, t.Attempted, t.Lost, t.Misordered, t.Unfair, t.Unreported, r.Failed, t.Pairs, t.Beyond)
}

// printLayer prints a per-layer table sorted by name.
func printLayer(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-32s %16.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

func cmdTrace(out io.Writer, ws []workload, seed uint64, seconds float64, spansPath string, env *envBlock) error {
	for _, w := range ws {
		tr, err := traceWorkload(w, seed, seconds/tracedShare, env)
		if err != nil {
			return err
		}
		if len(ws) > 1 {
			delete(tr.metrics, "bench.peak_rss_mb") // see peakRSSMB
		}
		fmt.Fprintf(out, "\n%s — traced, one segment of %.1fs beside one untraced\n", w.name, seconds/tracedShare)
		printLayer(out, tr.metrics)
		if tr.ledger != "" {
			fmt.Fprint(out, tr.ledger)
		}
		if spansPath != "" && tr.spans != nil {
			f, err := os.Create(spansPath)
			if err != nil {
				return err
			}
			if err := tr.spans.writeSpans(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}

func cmdLayers(out io.Writer, only string, seconds float64) error {
	m, err := runLayers(only, seconds)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "\nlayers — each layer's public hot call timed alone")
	printLayer(out, m)
	return nil
}

// cmdDriver is the benchmark contract: one workload, one JSON line last.
// With trace off it reports every end-to-end metric; with trace on,
// every per-layer metric: the traced run's boundary counts and CPU
// shares plus the isolated layer rows.
func cmdDriver(out io.Writer, w workload, seed uint64, seconds float64, traced bool, env *envBlock) error {
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{}
	if !traced {
		r, err := measure(w, seed, seconds, env)
		if err != nil {
			return err
		}
		r.Layer["bench.peak_rss_mb"] = peakRSSMB()
		printResult(out, r)
		line.Correct, line.Attempted, line.Failed, line.Metrics = r.Correct, r.Tally.Attempted, r.Tally.failed(), r.headline()
	} else {
		tr, err := traceWorkload(w, seed, seconds/tracedShare, env)
		if err != nil {
			return err
		}
		rows, err := runLayers("", seconds/3)
		if err != nil {
			return err
		}
		for k, v := range rows {
			tr.metrics[k] = v
		}
		printLayer(out, tr.metrics)
		line.Correct, line.Attempted, line.Failed, line.Metrics = tr.correct, tr.tally.Attempted, tr.tally.failed(), tr.metrics
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", b)
	return nil // a failed check travels in the line's correct and failed, not in the exit code
}
