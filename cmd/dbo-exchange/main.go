// Command dbo-exchange runs a live central exchange server: market data
// generator, DBO ordering buffer, and matching engine over UDP.
//
// Start the participants first (cmd/dbo-mp) so their addresses are
// known, then:
//
//	dbo-exchange -listen 127.0.0.1:7000 -mps 1=127.0.0.1:7001,2=127.0.0.1:7002 \
//	             -tick 1ms -ticks 1000 -delta 500us -tau 500us
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"dbo"
	"dbo/internal/audit"
	"dbo/internal/flight"
	"dbo/internal/metrics"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the command: exit 2 for bad arguments, 1 for a failure, 0
// once the exchange has run its ticks and a drain period, or ctx has
// ended, and reported.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dbo-exchange", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "127.0.0.1:7000", "UDP listen address")
	mps := fs.String("mps", "", "comma-separated id=host:port participant endpoints")
	tick := fs.Duration("tick", time.Millisecond, "market data interval")
	ticks := fs.Int("ticks", 1000, "number of data points to generate")
	delta := fs.Duration("delta", 500*time.Microsecond, "δ pacing gap")
	kappa := fs.Float64("kappa", 0.25, "κ batching gain")
	tau := fs.Duration("tau", 500*time.Microsecond, "τ heartbeat/maintenance period")
	straggler := fs.Duration("straggler", 0, "straggler RTT threshold (0 = off)")
	httpAddr := fs.String("http", "", "serve /metrics, /metrics/prom, /debug/flight and /debug/audit here")
	flightOut := fs.String("flight", "", "write the flight trace to this NDJSON file on exit")
	flightBuf := fs.Int("flight-buf", 0, "flight recorder ring capacity (0 = default)")
	pprofOn := fs.Bool("pprof", false, "also serve /debug/pprof/ and Go runtime gauges on -http")
	rttDir := fs.String("rtt-dir", "", "capture per-MP probe RTTs and write replayable CSV traces here on exit (implies probing at τ)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var addrs []dbo.ParticipantAddr
	for _, part := range strings.Split(*mps, ",") {
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok {
			fmt.Fprintf(stderr, "bad -mps entry %q (want id=host:port)\n", part)
			return 2
		}
		n, err := strconv.Atoi(id)
		if err != nil {
			fmt.Fprintf(stderr, "bad participant id %q: %v\n", id, err)
			return 2
		}
		addrs = append(addrs, dbo.ParticipantAddr{ID: dbo.ParticipantID(n), Addr: addr})
	}
	if len(addrs) == 0 {
		fmt.Fprintln(stderr, "no participants: pass -mps 1=host:port,...")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}

	var rec *dbo.FlightRecorder
	if *flightOut != "" || *httpAddr != "" {
		rec = dbo.NewFlightRecorder(*flightBuf)
	}
	// The live fairness auditor watches every forwarded trade in-process
	// (δ-gap and atomicity are participant-side checks; see dbo-mp).
	auditor := audit.New(audit.Config{})
	cfg := dbo.ExchangeConfig{
		Listen:       *listen,
		TickInterval: *tick,
		Ticks:        *ticks,
		Delta:        *delta,
		Kappa:        *kappa,
		Tau:          *tau,
		StragglerRTT: *straggler,
		Flight:       rec,
		Auditor:      auditor,
	}
	if *rttDir != "" {
		cfg.CaptureRTT = *tau
	}
	ex, err := dbo.NewExchange(cfg)
	if err != nil {
		return fail(err)
	}
	auditor.Register(ex.Metrics())
	if *httpAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", ex.Metrics().Handler())
		mux.Handle("/metrics/prom", ex.Metrics().PromHandler())
		mux.Handle("/debug/flight", flight.Handler(rec))
		mux.Handle("/debug/audit", audit.Handler(auditor))
		if *pprofOn {
			metrics.MountPprof(mux)
			metrics.RegisterRuntime(ex.Metrics())
		}
		go func() {
			if err := http.ListenAndServe(*httpAddr, mux); err != nil {
				fmt.Fprintln(stderr, "http:", err)
			}
		}()
		fmt.Fprintf(stdout, "serving /metrics, /debug/flight and /debug/audit on %s\n", *httpAddr)
	}
	fmt.Fprintf(stdout, "CES listening on %s (udp) / %s (tcp reverse path), %d participants, %d ticks every %v\n",
		ex.Addr(), ex.TCPAddr(), len(addrs), *ticks, *tick)
	if err := ex.Start(addrs); err != nil {
		return fail(err)
	}
	defer ex.Stop()

	// Run until data generation plus a drain period has elapsed, then
	// report.
	select {
	case <-time.After(time.Duration(*ticks)**tick + time.Second):
	case <-ctx.Done():
	}
	trades := ex.Forwarded()
	fmt.Fprintf(stdout, "forwarded %d trades to the matching engine, %d executions\n",
		len(trades), ex.Executions())
	perMP := map[dbo.ParticipantID]int{}
	for _, t := range trades {
		perMP[t.MP]++
	}
	for _, a := range addrs {
		fmt.Fprintf(stdout, "  MP %d: %d trades\n", a.ID, perMP[a.ID])
	}
	if *flightOut != "" {
		f, err := os.Create(*flightOut)
		if err != nil {
			return fail(err)
		}
		events := rec.Snapshot()
		if err := flight.Write(f, events); err != nil {
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "flight: %d events to %s (%d dropped)\n", len(events), *flightOut, rec.Dropped())
	}
	if *rttDir != "" {
		if err := os.MkdirAll(*rttDir, 0o755); err != nil {
			return fail(err)
		}
		for _, a := range addrs {
			tr := ex.RTTTrace(a.ID)
			if tr == nil {
				continue // no valid probe replies from this MP
			}
			path := filepath.Join(*rttDir, fmt.Sprintf("rtt-mp%d.csv", a.ID))
			f, err := os.Create(path)
			if err != nil {
				return fail(err)
			}
			if err := tr.WriteCSV(f); err != nil {
				return fail(err)
			}
			if err := f.Close(); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "rtt: %d samples to %s (replay with dbo-sim -trace)\n", len(tr.RTT), path)
		}
	}
	s := auditor.Stats()
	fmt.Fprintf(stdout, "audit: fairness %.4f over %d pairs (%d unfair)\n", s.Fairness, s.Pairs, s.UnfairPairs)
	return 0
}
