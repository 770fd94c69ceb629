package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"go/format"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"dbo/internal/market"
	"dbo/internal/sim"
)

var update = flag.Bool("update", false, "rewrite BENCHMARK.json from the tables in this package")

var testEnv = readEnv()

// The names are the benchmark's interface: BENCHMARK.json, the driver
// and every later comparison key on them.
var (
	goldenWorkloads = []string{"sim_cloud", "pipeline_full", "live_ingest_paced", "live_ingest_sat", "live_cluster"}
	goldenEndToEnd  = []string{
		"trades_per_s", "latency_p50_us", "overhead_p50_us", "overhead_p99_us",
		"allocs_per_trade", "fairness_ratio", "success_ratio", "setup_s",
	}
	goldenPerLayer = []string{
		"wire.encode_ns", "wire.decode_into_ns", "wire.decode_boxed_ns", "wire.decode_boxed_allocs",
		"transport.udp_send_ns", "transport.udp_serve_ns", "transport.udp_allocs",
		"transport.tcp_send_ns", "transport.tcp_serve_ns", "transport.tcp_allocs",
		"rt.post_ns", "rt.post_allocs", "rt.timer_ns", "rt.timer_late_p50_us",
		"sim.event_ns", "sim.event_allocs", "netsim.link_send_ns", "netsim.link_allocs",
		"core.ob_trade_ns", "core.ob_heartbeat_ns", "core.ob_allocs",
		"core.rb_data_ns", "core.rb_trade_ns", "core.batcher_next_ns",
		"lob.submit_ns", "lob.allocs", "lob.execs_per_order", "feed.next_ns",
		"flight.emit_ns", "flight.emit_off_ns", "audit.forward_ns", "audit.deliver_ns", "metrics.observe_ns",
		"node.trades_received", "node.heartbeats_received", "node.trades_forwarded", "node.executions",
		"core.ob_hold_p50_us", "core.ob_hold_p99_us", "node.hb_staleness_p50_us", "transport.probe_rtt_p50_us",
		"exchange.heartbeats_per_trade", "exchange.retx_requests", "exchange.lost",
		"node.latency_p90_us", "node.latency_p99_us", "node.latency_p999_us",
		"node.exec_reports_lost_ratio", "node.tick_drift_ratio",
		"bench.cpu_us_per_trade", "bench.peak_rss_mb", "bench.build_us",
		"bench.gen_late_p50_us", "bench.gen_late_p99_us", "bench.segment_spread", "bench.trace_overhead_ratio",
		"bench.span_coverage", "bench.profile_samples",
		"runtime.gc_share", "runtime.sched_share", "syscall.share", "bench.share", "other.share",
		"wire.cpu_share", "transport.cpu_share", "rt.cpu_share", "node.cpu_share", "core.cpu_share",
		"lob.cpu_share", "feed.cpu_share", "market.cpu_share", "exchange.cpu_share", "sim.cpu_share",
		"netsim.cpu_share", "flight.cpu_share", "audit.cpu_share", "metrics.cpu_share", "clock.cpu_share",
		"fairness.cpu_share", "stats.cpu_share", "trace.cpu_share",
	}
)

func TestGoldenNames(t *testing.T) {
	var ws, e2e, layer []string
	for _, w := range workloads {
		ws = append(ws, w.name)
	}
	for _, d := range endToEnd {
		e2e = append(e2e, d.Name)
	}
	for _, r := range perLayer() {
		layer = append(layer, r.name)
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{{"workloads", ws, goldenWorkloads}, {"end-to-end metrics", e2e, goldenEndToEnd}, {"per-layer metrics", layer, goldenPerLayer}} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s changed:\n got %v\nwant %v", c.what, c.got, c.want)
		}
	}
}

// manifest is BENCHMARK.json as the tables in this package imply it.
func manifest() map[string]any {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var ws []wl
	for _, w := range workloads {
		ws = append(ws, wl{w.name, w.why})
	}
	var rows []layerDef
	for _, r := range perLayer() {
		better := "lower"
		if higherIsBetter[r.name] {
			better = "higher"
		}
		rows = append(rows, layerDef{r.name, r.unit, better})
	}
	b, err := json.Marshal(map[string]any{
		"command":     []string{"go", "run", "./cmd/dbo-load"},
		"paths":       []string{"cmd/dbo-load"},
		"run_seconds": defaultSeconds,
		"workloads":   ws,
		"end_to_end":  endToEnd,
		"per_layer":   rows,
	})
	if err != nil {
		panic(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		panic(err)
	}
	return m
}

// TestBenchmarkManifest pins BENCHMARK.json to what run prints: the
// same workloads with the same rationale, the same metrics with the
// same units and bounds, and the contract's limits on all of them.
func TestBenchmarkManifest(t *testing.T) {
	path := filepath.Join("..", "..", "BENCHMARK.json")
	want := manifest()
	if *update {
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("BENCHMARK.json does not parse: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json is out of step with cmd/dbo-load; run go test ./cmd/dbo-load -run TestBenchmarkManifest -update")
	}
	if len(b) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(b))
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	sawSetup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		sawSetup = sawSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !sawSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if n := len(perLayer()); n > 128 {
		t.Errorf("%d per-layer metrics, over 128", n)
	}
}

// TestWorkloads runs every workload for one 300 ms segment and checks
// that it reports every end-to-end metric, none of them zero, and that
// what DBO guarantees held: nothing misordered, nothing unfair.
func TestWorkloads(t *testing.T) {
	t.Parallel()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			s, err := w.run(segOpts{seed: 7, dur: 300 * time.Millisecond, env: testEnv})
			if errors.Is(err, errTimerFloor) {
				t.Skip(err) // a host, or a moment, whose timers are too coarse to say anything
			}
			if err != nil {
				t.Fatal(err)
			}
			segs := []segment{s}
			w.addModel(segs, 7)
			r := fold(w, segs, []float64{s.setup.Seconds()}, 300*time.Millisecond)
			for name, m := range r.headline() {
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v %s, want a positive number", name, m.Value, m.Unit)
				}
			}
			if r.Tally.Misordered != 0 || r.Tally.Unfair != 0 || r.Tally.Pairs == 0 {
				t.Errorf("order check: %+v", r.Tally)
			}
			if w.inProcess && !r.Correct {
				t.Errorf("in-process workload failed its check: %+v", r.Tally)
			}
			if w.name == "sim_cloud" {
				// What the simulation computes in simulated time repeats
				// exactly for a seed.
				again, err := w.run(segOpts{seed: 7, dur: 300 * time.Millisecond, env: testEnv})
				if err != nil {
					t.Fatal(err)
				}
				if s.lat != again.lat || s.over != again.over || s.trades != again.trades || s.fairness != 1 || again.fairness != 1 || s.tally.Lost != 0 {
					t.Errorf("two runs of one seed differ or are unfair:\n%+v\n%+v", s, again)
				}
			}
		})
	}
}

// TestDriverLine runs the driver's form and checks the last line of
// standard output against the contract, traced and untraced.
func TestDriverLine(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		trace string
		names []string
	}{{"0", goldenEndToEnd}, {"1", goldenPerLayer}} {
		t.Run("trace"+c.trace, func(t *testing.T) {
			t.Parallel()
			var out bytes.Buffer
			if rc := run([]string{"--workload", "pipeline_full", "--seed", "5", "--seconds", "0.3", "--trace", c.trace}, &out, io.Discard); rc != 0 {
				t.Fatalf("exit code %d\n%s", rc, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("last line is not JSON: %v", err)
			}
			if len(line) != 4 {
				t.Errorf("last line has keys %v, want exactly correct, attempted, failed, metrics", line)
			}
			var metrics map[string]metric
			if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			if len(metrics) != len(c.names) {
				t.Errorf("%d metrics, want %d", len(metrics), len(c.names))
			}
			for _, name := range c.names {
				if _, ok := metrics[name]; !ok {
					t.Errorf("metric %s missing", name)
				}
			}
			if string(line["correct"]) != "true" || string(line["failed"]) != "0" {
				t.Errorf("correct=%s failed=%s", line["correct"], line["failed"])
			}
			if c.trace == "1" {
				// The span ledger must account for the traced window, and
				// the share rows must partition the profile. Which module
				// a sample lands in is luck on a window this short (a
				// handful of samples at 100 Hz), so no single share is
				// asserted; TestChargeTo covers the attribution.
				if v := metrics["bench.span_coverage"].Value; math.Abs(v-1) > 0.05 {
					t.Errorf("span self times sum to %.3f of the window, want within 5%%", v)
				}
				sum := metrics["runtime.gc_share"].Value + metrics["runtime.sched_share"].Value +
					metrics["bench.share"].Value + metrics["other.share"].Value
				for _, m := range shareModules {
					sum += metrics[m+".cpu_share"].Value
				}
				if math.Abs(sum-1) > 1e-9 || metrics["bench.profile_samples"].Value <= 0 {
					t.Errorf("shares sum to %v over %v samples, want 1 over at least one", sum, metrics["bench.profile_samples"].Value)
				}
				if !(metrics["bench.trace_overhead_ratio"].Value > 0) {
					t.Errorf("bench.trace_overhead_ratio=%v", metrics["bench.trace_overhead_ratio"])
				}
			}
		})
	}
}

// TestBrokenOrderFailsRun: a forwarded sequence that is out of order
// must make run exit non-zero.
func TestBrokenOrderFailsRun(t *testing.T) {
	// Three participants race on point 1 and are forwarded in the given
	// order of response times.
	sequence := func(rts ...sim.Time) tally {
		var c orderChecker
		for i, rt := range rts {
			c.observe(&market.Trade{
				MP: market.ParticipantID(i + 1), Seq: 1, Trigger: 1, RT: rt,
				DC: market.DeliveryClock{Point: 1, Elapsed: rt},
			})
		}
		c.tally.Attempted = int64(len(rts))
		return c.tally
	}
	if got := sequence(10, 20, 30); got.failed() != 0 || got.Pairs != 3 {
		t.Fatalf("sorted sequence scored %+v", got)
	}
	broken := sequence(10, 30, 20)
	if broken.Misordered != 1 || broken.Unfair != 1 {
		t.Fatalf("swapped sequence scored %+v, want one misordered and one unfair", broken)
	}

	saved := workloads
	defer func() { workloads = saved }()
	workloads = append(workloads[:len(workloads):len(workloads)], workload{
		name: "broken", why: "test", inProcess: true,
		run: func(segOpts) (segment, error) {
			return segment{trades: 3, wall: time.Second, tally: broken, fairness: broken.fairness()}, nil
		},
	})
	var out bytes.Buffer
	if rc := run([]string{"run", "-workload", "broken", "-seconds", "0.1"}, &out, io.Discard); rc != 1 {
		t.Errorf("run exited %d on a misordered sequence, want 1\n%s", rc, out.String())
	}
	if !strings.Contains(out.String(), "check FAILED") {
		t.Errorf("run did not report the failed check:\n%s", out.String())
	}
	out.Reset()
	if rc := run([]string{"repeat", "-n", "2", "-workload", "broken", "-seconds", "0.1"}, &out, io.Discard); rc != 1 {
		t.Errorf("repeat exited %d on a misordered sequence, want 1\n%s", rc, out.String())
	}
}

//go:noinline
func burn(d time.Duration) (x uint64) {
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1<<12; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestDecodeProfile captures a CPU profile here and now and checks the
// stdlib-only decoder recovers its stacks and values.
func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	burn(100 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, burned int64
	for _, s := range samples {
		total += s.value
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".burn") {
				burned += s.value
				break
			}
		}
	}
	if total <= 0 || burned*2 < total {
		t.Errorf("burn holds %d of %d sampled ns over %d samples, want most of them", burned, total, len(samples))
	}
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
}

func TestChargeTo(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "dbo/internal/wire.Decode", "dbo/internal/transport.(*Endpoint).Serve"}, "wire"},
		{[]string{"syscall.Syscall6", "net.(*UDPConn).WriteToUDP", "dbo/internal/transport.(*Endpoint).Send", "dbo/internal/node.(*CES).tick"}, "transport"},
		{[]string{"main.(*orderChecker).observe", "main.(*pipeline).forward", "dbo/internal/core.(*OrderingBuffer).forward"}, "bench"},
		{[]string{"dbo/internal/lob.(*Engine).Submit", "dbo/cmd/dbo-load.(*pipeline).forward", "dbo/internal/core.(*OrderingBuffer).forward"}, "lob"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "runtime.sched"},
		{[]string{"runtime.memmove"}, "other"},
	} {
		if got := chargeTo(c.stack); got != c.want {
			t.Errorf("chargeTo(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
	if !inSyscall([]string{"internal/runtime/syscall.Syscall6", "syscall.RawSyscall6"}) || inSyscall([]string{"runtime.mallocgc"}) {
		t.Error("inSyscall misjudges a leaf")
	}
}

func TestSpanSelfTime(t *testing.T) {
	l := newSpanLog()
	l.push(spStep, 0, 0)
	l.push(spOBTrade, 7, 10)
	l.push(spLOBSubmit, 7, 20)
	l.pop(50) // lob: 30 self
	l.pop(60) // ob: 50 long, 30 of it lob's → 20 self
	l.pop(100)
	if l.self[spLOBSubmit] != 30 || l.self[spOBTrade] != 20 || l.self[spStep] != 50 {
		t.Errorf("self times %v", l.self)
	}
	if covered, _ := l.ledger(100); covered != 1 {
		t.Errorf("self times cover %v of the window, want all of it", covered)
	}
	if len(l.raw) != 3 || l.raw[2].Parent != 1 || l.raw[1].Parent != 0 || l.raw[0].Parent != -1 || l.raw[2].End != 50 {
		t.Errorf("raw spans %+v", l.raw)
	}
	var nilLog *spanLog
	nilLog.begin(spStep, 0) // tracing off: no-ops, no panic
	nilLog.next(spStep, 0)
	nilLog.end()
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := quartileSpread(vs); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread = %v, want 1", got)
	}
}

func TestTimerGuard(t *testing.T) {
	e := &envBlock{TimerFloorUS: 1147}
	if err := e.checkIntervals(2*time.Millisecond, 5*time.Millisecond); err != nil {
		t.Errorf("2 ms refused on a 1.147 ms floor: %v", err)
	}
	if err := e.checkIntervals(5*time.Millisecond, time.Millisecond); err == nil {
		t.Error("1 ms accepted on a 1.147 ms floor")
	}
}

func TestGofmt(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if out, err := format.Source(src); err != nil || !bytes.Equal(out, src) {
			t.Errorf("%s is not gofmt-clean (%v)", f, err)
		}
	}
}
