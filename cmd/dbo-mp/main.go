// Command dbo-mp runs a live market participant with its co-located
// release buffer: it receives the paced market data stream, reacts
// after a configurable response time, and submits delivery-clock-tagged
// trades to the exchange.
//
//	dbo-mp -id 1 -listen 127.0.0.1:7001 -ces 127.0.0.1:7000 \
//	       -delta 500us -tau 500us -rt 200us -prob 0.8
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/signal"
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
// once ctx has ended (an interrupt) and the participant has stopped.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dbo-mp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	id := fs.Int("id", 1, "participant id")
	listen := fs.String("listen", "127.0.0.1:7001", "RB ingress UDP address")
	ces := fs.String("ces", "127.0.0.1:7000", "exchange UDP address")
	cesTCP := fs.String("ces-tcp", "", "exchange TCP address (use the reliable reverse path)")
	delta := fs.Duration("delta", 500*time.Microsecond, "δ pacing gap (must match the CES)")
	tau := fs.Duration("tau", 500*time.Microsecond, "τ heartbeat period")
	rt := fs.Duration("rt", 200*time.Microsecond, "base response time")
	jitter := fs.Duration("jitter", 100*time.Microsecond, "uniform response jitter")
	prob := fs.Float64("prob", 1.0, "probability of trading per data point")
	seed := fs.Uint64("seed", 0, "strategy seed (0 = participant id)")
	httpAddr := fs.String("http", "", "serve /metrics, /metrics/prom, /debug/flight and /debug/audit here")
	flightBuf := fs.Int("flight-buf", 0, "flight recorder ring capacity (0 = default)")
	pprofOn := fs.Bool("pprof", false, "also serve /debug/pprof/ and Go runtime gauges on -http")
	slack := fs.Duration("audit-slack", 50*time.Microsecond, "δ-gap audit slack (absorbs scheduler jitter on live nodes)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *seed == 0 {
		*seed = uint64(*id)
	}
	rng := rand.New(rand.NewPCG(*seed, *seed^0xbeef))
	strategy := func(dp dbo.DataPoint) (bool, time.Duration, dbo.Side, int64, int64) {
		if rng.Float64() >= *prob {
			return false, 0, dbo.Buy, 0, 0
		}
		d := *rt
		if *jitter > 0 {
			d += time.Duration(rng.Int64N(int64(*jitter)))
		}
		side := dbo.Buy
		if rng.IntN(2) == 1 {
			side = dbo.Sell
		}
		return true, d, side, dp.Price, 1
	}

	var rec *dbo.FlightRecorder
	if *httpAddr != "" {
		rec = dbo.NewFlightRecorder(*flightBuf)
	}
	// δ-gap pacing and batch atomicity are audited where delivery
	// happens — here, on the participant's own clock.
	auditor := audit.New(audit.Config{Delta: dbo.Time(*delta), Slack: dbo.Time(*slack)})
	mp, err := dbo.NewParticipant(dbo.ParticipantConfig{
		ID:       dbo.ParticipantID(*id),
		Listen:   *listen,
		CES:      *ces,
		CESTCP:   *cesTCP,
		Delta:    *delta,
		Tau:      *tau,
		Strategy: strategy,
		Flight:   rec,
		Auditor:  auditor,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer mp.Stop()
	auditor.Register(mp.Metrics())
	if *httpAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", mp.Metrics().Handler())
		mux.Handle("/metrics/prom", mp.Metrics().PromHandler())
		mux.Handle("/debug/flight", flight.Handler(rec))
		mux.Handle("/debug/audit", audit.Handler(auditor))
		if *pprofOn {
			metrics.MountPprof(mux)
			metrics.RegisterRuntime(mp.Metrics())
		}
		go func() {
			if err := http.ListenAndServe(*httpAddr, mux); err != nil {
				fmt.Fprintln(stderr, "http:", err)
			}
		}()
		fmt.Fprintf(stdout, "serving /metrics, /debug/flight and /debug/audit on %s\n", *httpAddr)
	}
	fmt.Fprintf(stdout, "MP %d listening on %s, trading towards %s (rt %v±%v)\n",
		*id, mp.Addr(), *ces, *rt, *jitter)

	<-ctx.Done()
	fmt.Fprintln(stdout, "shutting down")
	return 0
}
