package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// tracer carries what the traced run adds to a segment: a CPU profile
// around the measured window (every workload) and a span log around
// every layer call (pipeline_full, whose harness owns every call).
// Headline numbers never come from a traced run. Every method is a
// no-op on a nil *tracer, so workloads call them unconditionally.
type tracer struct {
	prof      bytes.Buffer
	profiling bool
	// wantSpans asks pipeline_full for its span log instead of a CPU
	// profile: a clock read around every call would be most of what the
	// profile sees, so the two are taken on separate segments.
	wantSpans bool
	spans     *spanLog
}

func (t *tracer) startProfile() {
	if t == nil || t.wantSpans {
		return
	}
	t.prof.Reset()
	t.profiling = pprof.StartCPUProfile(&t.prof) == nil
}

func (t *tracer) stopProfile() {
	if t != nil && t.profiling {
		pprof.StopCPUProfile()
		t.profiling = false
	}
}

// shareModules are the rows cpuShares always reports, so the per-layer
// table has the same names on every workload.
var shareModules = []string{
	"wire", "transport", "rt", "node", "core", "lob", "feed", "market", "exchange",
	"sim", "netsim", "flight", "audit", "metrics", "clock", "fairness", "stats", "trace",
}

// cpuShares decodes the window's CPU profile and returns each module's
// share of the sampled CPU as "<module>.cpu_share", plus runtime.gc_share,
// runtime.sched_share, bench.share, other.share (these partition the
// samples) and syscall.share (the part of all samples whose leaf is a
// system call, whoever made it).
func (t *tracer) cpuShares() (map[string]float64, error) {
	samples, err := decodeProfile(t.prof.Bytes())
	if err != nil {
		return nil, err
	}
	var total, sys int64
	by := map[string]int64{}
	for _, s := range samples {
		total += s.value
		by[chargeTo(s.stack)] += s.value
		if inSyscall(s.stack) {
			sys += s.value
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof: profile holds no samples")
	}
	share := func(n int64) float64 { return float64(n) / float64(total) }
	out := map[string]float64{
		"runtime.gc_share":      share(by["runtime.gc"]),
		"runtime.sched_share":   share(by["runtime.sched"]),
		"bench.share":           share(by["bench"]),
		"syscall.share":         share(sys),
		"bench.profile_samples": float64(len(samples)),
	}
	named := by["runtime.gc"] + by["runtime.sched"] + by["bench"]
	for _, m := range shareModules {
		out[m+".cpu_share"] = share(by[m])
		named += by[m]
	}
	out["other.share"] = share(total - named) // the runtime's rest, and any module the table does not name
	return out, nil
}

// spanID names one kind of layer call the pipeline harness makes.
type spanID uint8

const (
	spStep spanID = iota
	spFeedNext
	spBatcherNext
	spEncodeData
	spDecodeData
	spRBData
	spStrategy
	spRBTrade
	spEncodeTrade
	spDecodeTrade
	spOBTrade
	spEncodeHeartbeat
	spDecodeHeartbeat
	spOBHeartbeat
	spLOBSubmit
	spEncodeExec
	spCheck
	numSpans
)

var spanNames = [numSpans]string{
	"bench.step", "feed.next", "core.batcher_next", "wire.encode_data", "wire.decode_data",
	"core.rb_data", "bench.strategy", "core.rb_trade", "wire.encode_trade", "wire.decode_trade",
	"core.ob_trade", "wire.encode_heartbeat", "wire.decode_heartbeat", "core.ob_heartbeat",
	"lob.submit", "wire.encode_exec", "bench.check",
}

// span is one recorded layer call.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the window opened
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span in the log, -1 at the root
	Trade  uint64 `json:"trade"`  // mp<<40 | seq; 0 when the call serves no single trade
}

// maxRawSpans bounds the spans kept verbatim: a traced segment makes a
// few hundred per tick, millions per second. Every span is folded into
// the per-name ledger; the first maxRawSpans are also kept for writing out.
const maxRawSpans = 1 << 16

type openSpan struct {
	id       spanID
	trade    uint64
	start    int64
	children int64 // ns covered by child spans
	raw      int   // index in raw, -1 when past the cap
}

// spanLog records spans in memory. A span's self time is its duration
// minus the part its children cover.
type spanLog struct {
	t0    time.Time
	open  []openSpan
	raw   []span
	self  [numSpans]int64
	calls [numSpans]int64
}

func newSpanLog() *spanLog {
	return &spanLog{t0: time.Now(), open: make([]openSpan, 0, 16), raw: make([]span, 0, maxRawSpans)}
}

func (l *spanLog) begin(id spanID, trade uint64) {
	if l != nil {
		l.push(id, trade, int64(time.Since(l.t0)))
	}
}

func (l *spanLog) end() {
	if l != nil {
		l.pop(int64(time.Since(l.t0)))
	}
}

// next ends the open span and begins a sibling on one clock reading.
func (l *spanLog) next(id spanID, trade uint64) {
	if l != nil {
		now := int64(time.Since(l.t0))
		l.pop(now)
		l.push(id, trade, now)
	}
}

func (l *spanLog) push(id spanID, trade uint64, now int64) {
	o := openSpan{id: id, trade: trade, start: now, raw: -1}
	if len(l.raw) < maxRawSpans {
		o.raw = len(l.raw)
		parent := -1
		if n := len(l.open); n > 0 {
			parent = l.open[n-1].raw
		}
		l.raw = append(l.raw, span{Name: spanNames[id], Start: now, Parent: parent, Trade: trade})
	}
	l.open = append(l.open, o)
}

func (l *spanLog) pop(now int64) {
	n := len(l.open) - 1
	o := l.open[n]
	l.open = l.open[:n]
	dur := now - o.start
	l.self[o.id] += dur - o.children
	l.calls[o.id]++
	if n > 0 {
		l.open[n-1].children += dur
	}
	if o.raw >= 0 {
		l.raw[o.raw].End = now
	}
}

// ledger returns each span name's self time as a share of wall, the
// sum of all self times over wall (1 when the spans tile the window),
// and a printable table.
func (l *spanLog) ledger(wall time.Duration) (covered float64, table string) {
	type row struct {
		name        string
		self, calls int64
	}
	var rows []row
	var sum int64
	for id := spanID(0); id < numSpans; id++ {
		rows = append(rows, row{spanNames[id], l.self[id], l.calls[id]})
		sum += l.self[id]
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	var b strings.Builder
	fmt.Fprintf(&b, "  %-24s %12s %10s %8s\n", "span", "calls", "self ns/op", "share")
	for _, r := range rows {
		perOp := 0.0
		if r.calls > 0 {
			perOp = float64(r.self) / float64(r.calls)
		}
		fmt.Fprintf(&b, "  %-24s %12d %10.1f %7.1f%%\n", r.name, r.calls, perOp, 100*float64(r.self)/float64(wall))
	}
	covered = float64(sum) / float64(wall)
	fmt.Fprintf(&b, "  self times sum to %.1f%% of the %.3fs window; %d of %d spans kept verbatim\n",
		100*covered, wall.Seconds(), len(l.raw), sumInt(l.calls[:]))
	return covered, b.String()
}

func sumInt(vs []int64) (n int64) {
	for _, v := range vs {
		n += v
	}
	return n
}

// writeSpans writes the verbatim spans as NDJSON.
func (l *spanLog) writeSpans(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range l.raw {
		if err := enc.Encode(&l.raw[i]); err != nil {
			return err
		}
	}
	return nil
}

// traceRows are the per-layer metrics the traced run yields: counts and
// waits at the boundaries visible from outside the program, the
// harness's own diagnostics, and the CPU shares. A workload that has no
// such boundary (the simulation has no node registry, the live
// workloads have no exchange.Result) reports 0 there.
var traceRows = func() []layerRow {
	rows := []layerRow{
		{"node.trades_received", "count"}, {"node.heartbeats_received", "count"},
		{"node.trades_forwarded", "count"}, {"node.executions", "count"},
		{"core.ob_hold_p50_us", "us"}, {"core.ob_hold_p99_us", "us"},
		{"node.hb_staleness_p50_us", "us"}, {"transport.probe_rtt_p50_us", "us"},
		{"exchange.heartbeats_per_trade", "ratio"}, {"exchange.retx_requests", "count"},
		{"exchange.lost", "count"},
		{"node.latency_p90_us", "us"}, {"node.latency_p99_us", "us"}, {"node.latency_p999_us", "us"},
		{"node.exec_reports_lost_ratio", "ratio"}, {"node.tick_drift_ratio", "ratio"},
		{"bench.cpu_us_per_trade", "us"}, {"bench.peak_rss_mb", "MB"}, {"bench.build_us", "us"},
		{"bench.gen_late_p50_us", "us"}, {"bench.gen_late_p99_us", "us"},
		{"bench.segment_spread", "ratio"}, {"bench.trace_overhead_ratio", "ratio"},
		{"bench.span_coverage", "ratio"}, {"bench.profile_samples", "count"},
		{"runtime.gc_share", "ratio"}, {"runtime.sched_share", "ratio"},
		{"syscall.share", "ratio"}, {"bench.share", "ratio"}, {"other.share", "ratio"},
	}
	for _, m := range shareModules {
		rows = append(rows, layerRow{m + ".cpu_share", "ratio"})
	}
	return rows
}()

// higherIsBetter names the per-layer metrics where more is better;
// every other one is a cost, a wait or a share.
var higherIsBetter = map[string]bool{
	"lob.execs_per_order": true, "node.trades_received": true, "node.trades_forwarded": true,
	"node.executions": true, "node.tick_drift_ratio": true, "bench.span_coverage": true,
	"bench.profile_samples": true,
}

// perLayer lists every per-layer metric: the isolated rows, then the
// traced run's.
func perLayer() []layerRow {
	var rows []layerRow
	for _, l := range layers {
		rows = append(rows, l.rows...)
	}
	return append(rows, traceRows...)
}

// traced is one workload's traced run.
type traced struct {
	metrics map[string]metric
	ledger  string   // pipeline_full: the span self-time table
	spans   *spanLog // pipeline_full: for writing out
	tally   tally
	correct bool
}

// traceWorkload measures a workload untraced (two half segments, for
// the baseline and its spread) and then traced (one segment, with the
// CPU profile, spans and flight recorders on). The difference between
// the two is the tracing overhead.
func traceWorkload(w workload, seed uint64, segSeconds float64, env *envBlock) (traced, error) {
	segDur := time.Duration(segSeconds * float64(time.Second))
	run := func(seed uint64, dur time.Duration, tr *tracer) (segment, error) {
		runtime.GC()
		s, err := w.run(segOpts{seed: seed, dur: dur, tr: tr, env: env})
		if err != nil {
			return s, fmt.Errorf("%s: %w", w.name, err)
		}
		return s, nil
	}
	if _, err := run(seed+3, max(segDur/4, 100*time.Millisecond), nil); err != nil {
		return traced{}, err
	}
	a, err := run(seed, segDur/2, nil)
	if err != nil {
		return traced{}, err
	}
	b, err := run(seed+1, segDur/2, nil)
	if err != nil {
		return traced{}, err
	}
	tr := &tracer{}
	t, err := run(seed+2, segDur, tr)
	if err != nil {
		return traced{}, err
	}

	out := traced{metrics: map[string]metric{}}
	set := func(name string, v float64) {
		if m, ok := out.metrics[name]; ok {
			m.Value = v
			out.metrics[name] = m
		}
	}
	for _, r := range traceRows {
		out.metrics[r.name] = metric{Unit: r.unit}
	}
	for k, v := range t.layer {
		set(k, v)
	}
	shares, err := tr.cpuShares()
	if err != nil {
		return traced{}, fmt.Errorf("%s: %w", w.name, err)
	}
	for k, v := range shares {
		set(k, v)
	}
	// Tails and CPU per trade come from the untraced run.
	base := untracedRows([]segment{a, b})
	for k, v := range base {
		set(k, v)
	}
	set("bench.peak_rss_mb", peakRSSMB())
	set("bench.segment_spread", math.Abs(a.tradesPerS()-b.tradesPerS())/((a.tradesPerS()+b.tradesPerS())/2))
	if w.spans {
		// One more segment, with a span around every layer call.
		st := &tracer{wantSpans: true}
		if t, err = run(seed+2, segDur, st); err != nil {
			return traced{}, err
		}
		covered, table := st.spans.ledger(t.wall)
		set("bench.span_coverage", covered)
		out.ledger, out.spans = table, st.spans
	}
	set("bench.trace_overhead_ratio", t.cpuUSPerTrade()/base["bench.cpu_us_per_trade"])
	for _, s := range []segment{a, b, t} {
		out.tally.add(s.tally)
	}
	out.correct = out.tally.ok(w.failedLimit())
	return out, nil
}
