package main

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"dbo/internal/audit"
	"dbo/internal/core"
	"dbo/internal/feed"
	"dbo/internal/flight"
	"dbo/internal/lob"
	"dbo/internal/market"
	"dbo/internal/metrics"
	"dbo/internal/netsim"
	"dbo/internal/rt"
	"dbo/internal/sim"
	"dbo/internal/transport"
	"dbo/internal/wire"
)

// The isolated rows: each layer's public hot call timed alone, in ns
// per op and heap objects per op. A row is the median over batches, so
// one descheduling does not move it. These are the numbers an
// optimisation of one layer should move first; README.md lists which
// end-to-end metric each is expected to move after that.

// layerRow is one isolated measurement: a per-layer metric and its unit.
type layerRow struct{ name, unit string }

// layer is one module's rows and the function that measures them.
type layer struct {
	name string
	rows []layerRow
	run  func(budget time.Duration) (map[string]float64, error)
}

var layers = []layer{
	{"wire", []layerRow{{"wire.encode_ns", "ns"}, {"wire.decode_into_ns", "ns"}, {"wire.decode_boxed_ns", "ns"}, {"wire.decode_boxed_allocs", "count"}}, layerWire},
	{"transport", []layerRow{
		{"transport.udp_send_ns", "ns"}, {"transport.udp_serve_ns", "ns"}, {"transport.udp_allocs", "count"},
		{"transport.tcp_send_ns", "ns"}, {"transport.tcp_serve_ns", "ns"}, {"transport.tcp_allocs", "count"}}, layerTransport},
	{"rt", []layerRow{{"rt.post_ns", "ns"}, {"rt.post_allocs", "count"}, {"rt.timer_ns", "ns"}, {"rt.timer_late_p50_us", "us"}}, layerRT},
	{"sim", []layerRow{{"sim.event_ns", "ns"}, {"sim.event_allocs", "count"}}, layerSim},
	{"netsim", []layerRow{{"netsim.link_send_ns", "ns"}, {"netsim.link_allocs", "count"}}, layerNetsim},
	{"core", []layerRow{
		{"core.ob_trade_ns", "ns"}, {"core.ob_heartbeat_ns", "ns"}, {"core.ob_allocs", "count"},
		{"core.rb_data_ns", "ns"}, {"core.rb_trade_ns", "ns"}, {"core.batcher_next_ns", "ns"}}, layerCore},
	{"lob", []layerRow{{"lob.submit_ns", "ns"}, {"lob.allocs", "count"}, {"lob.execs_per_order", "ratio"}}, layerLOB},
	{"feed", []layerRow{{"feed.next_ns", "ns"}}, layerFeed},
	{"flight", []layerRow{{"flight.emit_ns", "ns"}, {"flight.emit_off_ns", "ns"}}, layerFlight},
	{"audit", []layerRow{{"audit.forward_ns", "ns"}, {"audit.deliver_ns", "ns"}}, layerAudit},
	{"metrics", []layerRow{{"metrics.observe_ns", "ns"}}, layerMetrics},
}

// runLayers measures one layer, or all of them within about seconds.
func runLayers(only string, seconds float64) (map[string]metric, error) {
	out := map[string]metric{}
	found := false
	for _, l := range layers {
		if only != "" && l.name != only {
			continue
		}
		found = true
		budget := time.Duration(seconds / float64(len(layers)) * float64(time.Second))
		got, err := l.run(budget)
		if err != nil {
			return nil, fmt.Errorf("layer %s: %w", l.name, err)
		}
		for _, r := range l.rows {
			out[r.name] = metric{Value: got[r.name], Unit: r.unit}
		}
	}
	if !found {
		return nil, fmt.Errorf("unknown layer %q", only)
	}
	return out, nil
}

func median(vs []float64) float64 { return spreadOf("", vs).Median }

// timeOp times run(n) — n back-to-back operations — in batches sized to
// about a millisecond, for about budget, and returns the median batch's
// ns per op and the mean heap objects per op.
func timeOp(budget time.Duration, run func(n int)) (nsPerOp, allocsPerOp float64) {
	n := 16
	for {
		t0 := time.Now()
		run(n)
		if time.Since(t0) >= time.Millisecond || n >= 1<<22 {
			break
		}
		n *= 4
	}
	samples := make([]float64, 0, 1024)
	total := 0
	m0 := mallocs()
	for deadline := time.Now().Add(budget); len(samples) < 3 || (time.Now().Before(deadline) && len(samples) < cap(samples)); {
		t0 := time.Now()
		run(n)
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(n))
		total += n
	}
	allocsPerOp = float64(mallocs()-m0) / float64(total)
	return median(samples), allocsPerOp
}

var (
	sampleTrade = market.Trade{
		MP: 7, Seq: 42, Symbol: 1, Side: market.Buy, Price: basePrice, Qty: 5,
		Trigger: 9, Submitted: 1000, RT: 12, DC: market.DeliveryClock{Point: 9, Elapsed: 77},
	}
	sampleHeartbeat = market.Heartbeat{MP: 7, DC: market.DeliveryClock{Point: 9, Elapsed: 80}, Sent: 1010}
	samplePoint     = market.DataPoint{ID: 10, Batch: 4, Last: true, Gen: 990, Symbol: 1, Price: basePrice, Qty: 2}
	boxedSink       any
)

// layerWire times the codec on the steady-state message mix of a
// receive loop — a trade, a heartbeat and a data point — per message.
func layerWire(budget time.Duration) (map[string]float64, error) {
	t := sampleTrade
	buf := make([]byte, 0, wire.TradeSize+wire.HeartbeatSize+wire.MarketDataSize)
	encode := func(n int) {
		for i := 0; i < n; i++ {
			buf = wire.AppendTrade(buf[:0], &t)
			buf = wire.AppendHeartbeat(buf, sampleHeartbeat)
			buf = wire.AppendMarketData(buf, samplePoint)
		}
	}
	encode(1)
	parts := [3][]byte{buf[:wire.TradeSize], buf[wire.TradeSize : wire.TradeSize+wire.HeartbeatSize], buf[wire.TradeSize+wire.HeartbeatSize:]}
	var m wire.Msg
	var failed error
	into := func(n int) {
		for i := 0; i < n; i++ {
			for _, p := range parts {
				if err := wire.DecodeInto(&m, p); err != nil {
					failed = err
				}
			}
		}
	}
	boxed := func(n int) {
		for i := 0; i < n; i++ {
			for _, p := range parts {
				v, err := wire.Decode(p)
				if err != nil {
					failed = err
				}
				boxedSink = v
			}
		}
	}
	enc, _ := timeOp(budget/3, encode)
	dec, _ := timeOp(budget/3, into)
	box, boxAllocs := timeOp(budget/3, boxed)
	return map[string]float64{
		"wire.encode_ns": enc / 3, "wire.decode_into_ns": dec / 3,
		"wire.decode_boxed_ns": box / 3, "wire.decode_boxed_allocs": boxAllocs / 3,
	}, failed
}

// serveRound is how many messages one gated Serve round handles: they
// wait in the socket buffer (well under its default size) while the
// handler holds the first, then Serve drains them without ever blocking.
const serveRound = 128

// gate parks a transport handler on the first message of each round so
// the rest of the round queues in the kernel, and reports the round's
// last message, so Serve's per-message cost is timed without the
// sender's pace in it.
type gate struct {
	handled int
	parked  chan struct{}
	open    chan struct{}
	done    chan struct{}
}

func newGate() *gate {
	return &gate{parked: make(chan struct{}), open: make(chan struct{}), done: make(chan struct{})}
}

func (g *gate) handle(any, *net.UDPAddr) {
	if g.handled%serveRound == 0 {
		g.parked <- struct{}{}
		<-g.open
	}
	g.handled++
	if g.handled%serveRound == 0 {
		g.done <- struct{}{}
	}
}

// timeRounds sends and times rounds until budget is spent; send queues
// one round's messages. It returns the median ns per served message and
// the mean heap objects per message on the whole trip.
func (g *gate) timeRounds(budget time.Duration, send func() error) (ns, allocs float64, err error) {
	var samples []float64
	m0 := mallocs()
	for deadline := time.Now().Add(budget); len(samples) < 3 || time.Now().Before(deadline); {
		if err := send(); err != nil {
			return 0, 0, err
		}
		select {
		case <-g.parked:
		case <-time.After(time.Second):
			return 0, 0, fmt.Errorf("transport: no message reached the handler")
		}
		time.Sleep(200 * time.Microsecond) // let the round's tail land in the socket buffer
		t0 := time.Now()
		g.open <- struct{}{}
		select {
		case <-g.done:
		case <-time.After(time.Second):
			return 0, 0, fmt.Errorf("transport: a round lost messages (%d handled)", g.handled)
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/(serveRound-1))
	}
	allocs = float64(mallocs()-m0) / float64(len(samples)*serveRound)
	return median(samples), allocs, nil
}

func layerTransport(budget time.Duration) (map[string]float64, error) {
	out := map[string]float64{}
	trade := sampleTrade

	// UDP: Endpoint.Send towards a drained socket, then Endpoint.Serve
	// fed by a raw socket.
	ep, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ep.Close()
	raw, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		buf := make([]byte, 2048)
		for {
			if _, _, err := raw.ReadFromUDPAddrPort(buf); err != nil {
				return
			}
		}
	}()
	defer func() { raw.Close(); <-drained }()
	to := raw.LocalAddr().(*net.UDPAddr)
	var sendErr error
	ns, sendAllocs := timeOp(budget/4, func(n int) {
		for i := 0; i < n; i += 2 {
			if err := ep.Send(&trade, to); err != nil {
				sendErr = err
			}
			if err := ep.Send(sampleHeartbeat, to); err != nil {
				sendErr = err
			}
		}
	})
	if sendErr != nil {
		return nil, sendErr
	}
	out["transport.udp_send_ns"] = ns

	g := newGate()
	go ep.Serve(g.handle) //nolint:errcheck // returns nil on Close
	pkts := [2][]byte{wire.AppendTrade(nil, &trade), wire.AppendHeartbeat(nil, sampleHeartbeat)}
	dst := ep.LocalAddr().AddrPort()
	ns, serveAllocs, err := g.timeRounds(budget/4, func() error {
		for i := 0; i < serveRound; i++ {
			if _, err := raw.WriteToUDPAddrPort(pkts[i%2], dst); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["transport.udp_serve_ns"], out["transport.udp_allocs"] = ns, sendAllocs+serveAllocs

	// Framed TCP: TCPClient.Send (one flush per message) into
	// TCPServer.Serve (buffered reads).
	srv, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	tg := newGate()
	var gated atomic.Bool                         // while timing Send the handler only counts
	go srv.Serve(func(v any, from *net.UDPAddr) { //nolint:errcheck // returns nil on Close
		if gated.Load() {
			tg.handle(v, from)
		}
	})
	cl, err := transport.DialTCP(srv.Addr().String())
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	send2 := func(n int) {
		for i := 0; i < n; i += 2 {
			if err := cl.Send(&trade); err != nil {
				sendErr = err
			}
			if err := cl.Send(sampleHeartbeat); err != nil {
				sendErr = err
			}
		}
	}
	ns, sendAllocs = timeOp(budget/4, send2)
	if sendErr != nil {
		return nil, sendErr
	}
	out["transport.tcp_send_ns"] = ns
	for sent := cl.Sent(); srv.Received() < sent; { // drain before gating
		time.Sleep(time.Millisecond)
	}
	gated.Store(true)
	ns, serveAllocs, err = tg.timeRounds(budget/4, func() error {
		send2(serveRound)
		return sendErr
	})
	if err != nil {
		return nil, err
	}
	out["transport.tcp_serve_ns"], out["transport.tcp_allocs"] = ns, sendAllocs+serveAllocs
	return out, nil
}

// layerRT times the wall-clock event loop: Post and dispatch of a
// message, At and dispatch of a due timer, and how late a 2 ms timer fires.
func layerRT(budget time.Duration) (map[string]float64, error) {
	l := rt.NewLoop()
	stopped := make(chan struct{})
	go func() { l.Run(); close(stopped) }()
	defer func() { l.Stop(); <-stopped }()
	done := make(chan struct{})
	last := func() { done <- struct{}{} }
	handled := 0

	// Like a node's receive path, every posted function closes over the
	// message it carries.
	post, postAllocs := timeOp(budget/3, func(n int) {
		for i := 1; i < n; i++ {
			msg := i
			l.Post(func() { handled += msg })
		}
		l.Post(last)
		<-done
	})
	timer, _ := timeOp(budget/3, func(n int) {
		for i := 1; i < n; i++ {
			msg := i
			l.At(l.Now(), func() { handled += msg })
		}
		l.At(l.Now(), last)
		<-done
	})
	var late []int64
	for deadline := time.Now().Add(budget / 3); len(late) < 5 || time.Now().Before(deadline); {
		at := l.Now() + sim.FromDuration(2*time.Millisecond)
		l.At(at, func() { late = append(late, int64(l.Now()-at)); done <- struct{}{} })
		<-done
	}
	return map[string]float64{
		"rt.post_ns": post, "rt.post_allocs": postAllocs, "rt.timer_ns": timer,
		"rt.timer_late_p50_us": quantilesOf(late).p50,
	}, nil
}

// layerSim times one simulator event — pop, call, reschedule — with a
// thousand events pending, the order of a ten-participant run.
func layerSim(budget time.Duration) (map[string]float64, error) {
	k := sim.NewKernel(1)
	rng := k.Rand()
	left := 0
	var fire func()
	fire = func() {
		if left--; left <= 0 {
			k.Stop()
		}
		k.After(sim.Time(1+rng.IntN(1000))*sim.Microsecond, fire)
	}
	for i := 0; i < 1000; i++ {
		k.After(sim.Time(1+rng.IntN(1000))*sim.Microsecond, fire)
	}
	ns, allocs := timeOp(budget, func(n int) {
		left = n
		k.Run()
	})
	return map[string]float64{"sim.event_ns": ns, "sim.event_allocs": allocs}, nil
}

// layerNetsim times one message over a simulated link: Send plus the
// kernel event that delivers it.
func layerNetsim(budget time.Duration) (map[string]float64, error) {
	k := sim.NewKernel(1)
	got := 0
	link := netsim.NewLink(k, netsim.Constant(50*sim.Microsecond), func(any) { got++ })
	t := sampleTrade
	ns, allocs := timeOp(budget, func(n int) {
		for i := 0; i < n; i += 64 {
			for j := 0; j < 64; j++ {
				link.Send(&t)
			}
			k.Run()
		}
	})
	if got == 0 {
		return nil, fmt.Errorf("link delivered nothing")
	}
	return map[string]float64{"netsim.link_send_ns": ns, "netsim.link_allocs": allocs}, nil
}

// layerCore times the DBO components on a manual clock: the ordering
// buffer at P=100 (a round is 16 tagged trades, then every
// participant's heartbeat releasing them), the release buffer, and the
// batcher.
func layerCore(budget time.Duration) (map[string]float64, error) {
	out := map[string]float64{}
	var sched manualSched
	var pool market.TradePool
	parts := make([]market.ParticipantID, pipelineMPs)
	for i := range parts {
		parts[i] = market.ParticipantID(i + 1)
	}
	forwarded := 0
	ob := core.NewOrderingBuffer(core.OrderingBufferConfig{Participants: parts, Sched: &sched, Forward: func(t *market.Trade) {
		forwarded++
		pool.Put(t)
	}})
	var point market.PointID
	var seq market.TradeSeq
	var tradeNS, hbNS []float64
	rounds := 0
	m0 := mallocs()
	for deadline := time.Now().Add(budget / 2); len(tradeNS) < 3 || time.Now().Before(deadline); {
		const batch, perRound = 64, 16
		var tTrade, tHB time.Duration
		for r := 0; r < batch; r++ {
			point++
			sched.now += 20 * sim.Microsecond
			t0 := time.Now()
			for i := 0; i < perRound; i++ {
				seq++
				t := pool.Get()
				t.MP, t.Seq, t.Trigger = parts[1+i], seq, point
				t.DC = market.DeliveryClock{Point: point, Elapsed: sim.Time(1 + (int(seq)*7919)%9000)}
				ob.OnTrade(t)
			}
			t1 := time.Now()
			hb := market.Heartbeat{DC: market.DeliveryClock{Point: point, Elapsed: 10 * sim.Microsecond}, Sent: sched.now}
			for _, mp := range parts {
				hb.MP = mp
				ob.OnHeartbeat(hb)
			}
			tTrade += t1.Sub(t0)
			tHB += time.Since(t1)
		}
		rounds += batch
		tradeNS = append(tradeNS, float64(tTrade.Nanoseconds())/(batch*perRound))
		hbNS = append(hbNS, float64(tHB.Nanoseconds())/(batch*pipelineMPs))
	}
	out["core.ob_allocs"] = float64(mallocs()-m0) / float64(rounds*(16+pipelineMPs))
	out["core.ob_trade_ns"], out["core.ob_heartbeat_ns"] = median(tradeNS), median(hbNS)
	if held := int(seq) - forwarded; held != 0 {
		return nil, fmt.Errorf("ordering buffer still holds %d trades", held)
	}

	const delta = 20 * sim.Microsecond
	delivered := 0
	rb := core.NewReleaseBuffer(core.ReleaseBufferConfig{
		MP: 1, Delta: delta, Sched: &sched,
		Deliver: func(*market.Batch) { delivered++ }, Send: func(any) {},
	})
	dp := samplePoint
	dp.ID, dp.Batch = 0, 0
	out["core.rb_data_ns"], _ = timeOp(budget/6, func(n int) {
		for i := 0; i < n; i++ {
			sched.now += delta
			dp.ID++
			dp.Batch++
			dp.Gen = sched.now
			rb.OnData(dp)
		}
	})
	if delivered == 0 {
		return nil, fmt.Errorf("release buffer delivered nothing")
	}
	t := sampleTrade
	out["core.rb_trade_ns"], _ = timeOp(budget/6, func(n int) {
		for i := 0; i < n; i++ {
			rb.OnTrade(&t)
		}
	})
	b := core.NewBatcher(delta, 0.25)
	gen := sim.Time(0)
	out["core.batcher_next_ns"], _ = timeOp(budget/6, func(n int) {
		for i := 0; i < n; i++ {
			gen += delta
			b.Next(gen, gen+delta)
		}
	})
	return out, nil
}

// layerLOB times Engine.Submit on the order flow every synthetic
// participant uses: crossing orders against a book a few dozen deep.
func layerLOB(budget time.Duration) (map[string]float64, error) {
	e := lob.NewEngine()
	flow := orderFlow{rng: 1}
	var failed error
	orders, fills := 0, 0
	ns, allocs := timeOp(budget, func(n int) {
		for i := 0; i < n; i++ {
			side, price, qty := flow.next()
			_, execs, err := e.Submit(1, int32(i%8), lobSide(side), price, qty)
			if err != nil {
				failed = err
			}
			orders++
			fills += len(execs)
		}
	})
	if e.Book(1).Crossed() {
		failed = fmt.Errorf("book crossed")
	}
	return map[string]float64{
		"lob.submit_ns": ns, "lob.allocs": allocs,
		"lob.execs_per_order": float64(fills) / float64(max(orders, 1)),
	}, failed
}

func layerFeed(budget time.Duration) (map[string]float64, error) {
	g := feed.New(feed.Config{Seed: 1})
	var q feed.Quote
	ns, _ := timeOp(budget, func(n int) {
		for i := 0; i < n; i++ {
			q = g.Next()
		}
	})
	if q.Bid >= q.Ask {
		return nil, fmt.Errorf("feed produced a crossed quote")
	}
	return map[string]float64{"feed.next_ns": ns}, nil
}

// layerFlight times Emit on an enabled recorder (a ring write under a
// mutex) and on a disabled one (the cost every hot path pays when
// tracing is off).
func layerFlight(budget time.Duration) (map[string]float64, error) {
	r := flight.NewRecorder(1 << 12)
	ev := flight.Event{Kind: flight.KindRelease, MP: 3, Seq: 9, Aux: 100}
	emit := func(n int) {
		for i := 0; i < n; i++ {
			ev.At++
			r.Emit(ev)
		}
	}
	on, _ := timeOp(budget/2, emit)
	r.SetEnabled(false)
	off, _ := timeOp(budget/2, emit)
	return map[string]float64{"flight.emit_ns": on, "flight.emit_off_ns": off}, nil
}

// layerAudit times the live auditor's two taps: a forwarded trade
// scored against its race, and a batch delivery checked for pacing.
func layerAudit(budget time.Duration) (map[string]float64, error) {
	a := audit.New(audit.Config{Delta: 20 * sim.Microsecond})
	t := sampleTrade
	pos := 0
	fwd, _ := timeOp(budget/2, func(n int) {
		for i := 0; i < n; i++ {
			pos++
			t.MP = market.ParticipantID(1 + pos%8)
			t.Seq = market.TradeSeq(pos)
			t.Trigger = market.PointID(1 + pos/8) // eight racers per point
			t.RT = sim.Time(pos % 8)
			t.FinalPos = pos
			a.OnForward(&t, sim.Time(pos))
		}
	})
	b := market.Batch{Points: []market.DataPoint{samplePoint}}
	at := sim.Time(0)
	del, _ := timeOp(budget/2, func(n int) {
		for i := 0; i < n; i++ {
			at += 20 * sim.Microsecond
			b.ID++
			b.Points[0].ID++
			a.OnDeliver(1, &b, at)
		}
	})
	if v := a.Stats().Violations(); v != 0 {
		return nil, fmt.Errorf("auditor flagged %d violations on a fair stream", v)
	}
	return map[string]float64{"audit.forward_ns": fwd, "audit.deliver_ns": del}, nil
}

func layerMetrics(budget time.Duration) (map[string]float64, error) {
	h := metrics.NewHistogram()
	v := int64(0)
	ns, _ := timeOp(budget, func(n int) {
		for i := 0; i < n; i++ {
			v += 997
			h.Observe(v & 0xfffff)
		}
	})
	return map[string]float64{"metrics.observe_ns": ns}, nil
}
