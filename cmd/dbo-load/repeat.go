package main

import (
	"fmt"
	"io"
	"sort"
)

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives: the benchmark driver's
// measure of run-to-run spread.
func quartileSpread(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		d := i*(n+1) - j*4
		j = max(1, min(j, n-1))
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	if med := q(2); med != 0 {
		return (q(3) - q(1)) / med
	}
	return 0
}

// cmdRepeat runs the headline n times on one seed and applies the
// benchmark's own bounds: on every workload, every end-to-end metric's
// sets must agree within that metric's bound, and what is computed in
// model time, and an in-process workload's counts, must repeat exactly.
func cmdRepeat(out io.Writer, ws []workload, seed uint64, seconds float64, n int, env *envBlock) error {
	if n < 2 {
		return fmt.Errorf("repeat needs -n of at least 2")
	}
	var bad []string
	for _, w := range ws {
		sets := map[string][]float64{}
		for i := 0; i < n; i++ {
			r, err := measure(w, seed, seconds, env)
			if err != nil {
				return err
			}
			if !r.Correct {
				bad = append(bad, w.name+": output check")
			}
			for _, d := range endToEnd {
				sets[d.Name] = append(sets[d.Name], r.Metrics[d.Name].Median)
			}
		}
		fmt.Fprintf(out, "\n%s — %d sets on seed %d\n", w.name, n, seed)
		for _, d := range endToEnd {
			vs := sets[d.Name]
			s := spreadOf(d.Unit, vs)
			gap := (s.Max - s.Min) / s.Median
			verdict := "ok"
			if gap > d.Bound {
				verdict = "OVER BOUND"
				bad = append(bad, w.name+": "+d.Name)
			}
			line := fmt.Sprintf("  %-18s median %14.4f %-6s (max−min)/median %.4f  bound %.3f", d.Name, s.Median, d.Unit, gap, d.Bound)
			if n >= 4 {
				line += fmt.Sprintf("  IQR/median %.4f", quartileSpread(vs))
			}
			fmt.Fprintln(out, line, " ", verdict)
		}
		// What is computed on a model clock repeats exactly for a seed. So
		// do the allocations of a workload that does fixed work, but for
		// the few objects the runtime allocates on its own behalf: some
		// units in the millions a segment allocates.
		exact := []string{"overhead_p50_us", "overhead_p99_us"}
		if w.inProcess {
			exact = append(exact, "latency_p50_us", "fairness_ratio")
			if s := spreadOf("", sets["allocs_per_trade"]); s.Max-s.Min > 1e-5*s.Median {
				bad = append(bad, w.name+": allocs_per_trade did not repeat")
			}
		}
		for _, name := range exact {
			if s := spreadOf("", sets[name]); s.Min != s.Max {
				bad = append(bad, w.name+": "+name+" did not repeat exactly")
			}
		}
	}
	if len(bad) > 0 {
		return errFailedCheck{bad}
	}
	return nil
}
