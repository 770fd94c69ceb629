// Package node implements the live deployment of §5 over real UDP
// sockets: a CES node (market data generator + ordering buffer +
// matching engine) and MP nodes (release buffer co-located with the
// participant's execution engine, the same workaround the paper uses
// for its public-cloud testbed, §6.3).
//
// Each node runs a single rt.Loop; its clock starts when the node
// starts, so node clocks are genuinely unsynchronized. All DBO logic is
// the same transport-agnostic core as the simulator's.
//
// Every input is a read by the node's one loop goroutine (rt.Loop.Watch):
// its UDP socket and, on the CES, its TCP listener and each connection
// accepted from it. Messages stay typed from socket to core: each
// datagram or frame is decoded in place and onMessage switches on its
// type. Besides the sockets only the node's timers and rt.Loop.Post (a
// scrape, start-up) reach the loop. Outbound, the loop encodes into a
// buffer it owns, once per message however many destinations it has. A
// market-data point, a probe and everything an MP sends are written at
// once (transport.Write): the release buffer's delivery time and a
// probe's T1 start at the write. The exchange's execution reports and
// retransmitted points are not written one by one: each is appended to
// its endpoint's egress queue, and the queues are flushed at the end of
// the loop turn that filled them (rt.Loop.OnTurnEnd), each as one
// segmented send (transport.WriteSegments) that arrives as one datagram
// per record.
//
// Who is a destination depends on the message. Market data and probes go
// to every participant: each release buffer is owed its own copy, and a
// probe carries the id it measures. An execution report goes to every
// distinct endpoint among its two owners: the report names both, so ids
// that share an address (a gateway hosting several participants, a
// self-cross) are served by one datagram. The CES resolves the distinct
// addresses once, in Start.
//
// The market-data tick keeps its own schedule (tickDeadline): each
// deadline is one interval after the previous deadline, not after the
// previous fire, so timer lateness does not compound and the feed runs
// at its configured rate. The MP's release buffer recycles its batches:
// what MPConfig.OnDeliver is handed is borrowed for the call.
package node

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"slices"
	"sync"
	"time"

	"dbo/internal/audit"
	"dbo/internal/core"
	"dbo/internal/feed"
	"dbo/internal/flight"
	"dbo/internal/lob"
	"dbo/internal/market"
	"dbo/internal/metrics"
	"dbo/internal/rt"
	"dbo/internal/sim"
	"dbo/internal/trace"
	"dbo/internal/transport"
	"dbo/internal/wire"
)

// wireRetx maps the core's retransmission request onto its wire record.
func wireRetx(r core.RetxRequest) wire.Retx {
	return wire.Retx{MP: r.MP, From: r.From, To: r.To}
}

// readBudget bounds what one loop turn reads from one socket, messages
// or connections, so that a flood keeps the loop from neither its
// timers nor its flush (DESIGN §8.10).
const readBudget = 128

// errUnsupported is starting a node without a loop to run it on.
var errUnsupported = fmt.Errorf("node: no event loop here: %w", errors.ErrUnsupported)

// resolve parses a UDP address into the form transport.Write takes.
func resolve(addr string) (netip.AddrPort, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return netip.AddrPort{}, err
	}
	ap := ua.AddrPort()
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()), nil
}

// registerSocket exports what the kernel is doing with a node's UDP
// socket: the receive buffer it granted, the send buffer it defaults to
// (nothing sets it), the datagrams it dropped because the receive buffer
// was full, and its failed reads.
func registerSocket(reg *metrics.Registry, ep *transport.Endpoint) {
	reg.Func("socket_rcvbuf_bytes", ep.RcvBuf)
	reg.Func("socket_sndbuf_bytes", ep.SndBuf)
	reg.Func("udp_rx_dropped", ep.Dropped)
	reg.Func("udp_rx_errors", ep.RxErrors)
}

// registerLoop exports how punctually a node's loop is woken for its
// timers: each one's lateness, and how often its alarm is set; and how
// often it sleeps and turns. The histogram is resolved once, like
// cesMetrics.
func registerLoop(reg *metrics.Registry, l *rt.Loop) {
	late := reg.Histogram("timer_late_ns")
	l.OnLate(func(by sim.Time) { late.Observe(int64(by)) })
	reg.Func("alarm_arms", l.Arms)
	reg.Func("loop_wakes", l.Wakes)
	reg.Func("loop_turns", l.Turns)
}

// ask evaluates fn on l's goroutine and returns its result, or -1: at
// once if the loop has stopped, after a second if it is wedged (a scrape
// must never hang).
func ask[T int | int64](l *rt.Loop, fn func() T) T {
	select {
	case <-l.Done():
		return -1 // checked first: a last turn may still answer, and select would pick either
	default:
	}
	ch := make(chan T, 1)
	l.Post(func() { ch <- fn() })
	select {
	case n := <-ch:
		return n
	case <-l.Done(): // stopped while waiting
	case <-time.After(time.Second):
	}
	return -1
}

// MPAddr names one market participant's release-buffer endpoint.
type MPAddr struct {
	ID   market.ParticipantID
	Addr string
}

// CESConfig configures a live central exchange server.
type CESConfig struct {
	Listen string   // UDP address for market data egress + trade ingress
	MPs    []MPAddr // participants' RB endpoints

	TickInterval time.Duration // market data generation interval
	Ticks        int           // total data points to generate
	Delta        time.Duration // δ
	Kappa        float64       // κ
	Tau          time.Duration // τ (OB maintenance cadence)
	StragglerRTT time.Duration // 0 disables straggler mitigation
	Symbols      int           // instruments in the data feed (default 1)
	FeedSeed     uint64        // market data generator seed

	// ProbeInterval enables TWAMP-light RTT probing of every MP at this
	// cadence (0 = off; defaults to Tau when Adaptive is set). Probe
	// RTTs feed the probe_rtt_ns histogram and, when Adaptive is set,
	// the threshold policy alongside the OB's heartbeat measurements.
	ProbeInterval time.Duration

	// CaptureRTT, when positive, persists each MP's measured probe RTTs
	// as a replayable trace regularized at this step (RTTTrace). It
	// implies probing: ProbeInterval defaults to CaptureRTT when unset.
	CaptureRTT time.Duration

	// Adaptive switches straggler mitigation to an adaptive threshold
	// learned from measured RTTs; StragglerRTT (required > 0) stays the
	// hard cap. See core.AdaptiveConfig.
	Adaptive *core.AdaptiveConfig

	// OnForward, if set, observes each trade as it reaches the ME
	// (called on the CES loop goroutine). The trade belongs to the CES:
	// it stays valid and unchanged for the CES's life, so the callback
	// may keep the pointer, but it must not write through it.
	OnForward func(t *market.Trade)

	// Flight, if non-nil, records the CES-side trade lifecycle (data
	// point generation, batch seals, OB enqueue/watermark/release with
	// hold attribution, straggler transitions, ME matches). Events are
	// stamped with the node's monotonic loop clock.
	Flight *flight.Recorder

	// Auditor, if non-nil, receives every forwarded trade (OnForward,
	// loop clock) so the live fairness check runs in-process on the
	// exchange node. Register it on Metrics() and mount audit.Handler
	// to serve /debug/audit.
	Auditor *audit.Auditor
}

// CES is a running central exchange server node.
type CES struct {
	cfg    CESConfig
	loop   *rt.Loop
	onMsg  func(*wire.Msg) // onMessage, bound once: every socket's drain hands it its messages
	ep     *transport.Endpoint
	tcp    *transport.TCPServer
	ob     *core.OrderingBuffer
	engine *lob.Engine
	batch  *core.Batcher
	quotes *feed.Generator
	reg    *metrics.Registry
	m      cesMetrics

	// Loop goroutine only. buf holds the one message being sent: encoded
	// once, written to each destination. addrs is the per-participant
	// fan-out list in cfg.MPs order (market data and probes: every RB is
	// owed its own copy); eps is the distinct addresses among them in
	// first-seen order (execution reports: one per socket, however many
	// ids it hosts); peers finds one participant by id (an exec's owner,
	// a heartbeat's sender) as peers[id-peerBase]. egress[i] is what this
	// loop turn has queued for eps[i]. nextTick is the deadline of the
	// market-data tick that is armed. genTimes and genPoints are each
	// point's generation time (the OB's GenTime) and the point (retransmit).
	// trades is where each received trade is copied out of the reader's
	// Msg: the OB queue, the ME and the forwarded log hold it from there.
	buf       []byte
	addrs     []netip.AddrPort
	eps       []netip.AddrPort
	egress    []egressQueue
	peers     []peer
	peerBase  int
	nextTick  sim.Time
	genTimes  []sim.Time
	genPoints []market.DataPoint
	trades    market.TradeArena

	// RTT probing (loop goroutine only, except the Prober internals
	// which are safe anywhere).
	policy   *core.AdaptiveThreshold
	probers  []*transport.Prober
	proberOf map[market.ParticipantID]*transport.Prober

	mu        sync.Mutex // guards forwarded, which other goroutines read
	forwarded []*market.Trade

	stop sync.Once
}

// peer is what the CES keeps per participant.
type peer struct {
	addr   netip.AddrPort // zero for an id inside the range that no participant has
	ep     int            // index of addr in CES.eps
	lastHB sim.Time       // arrival of its latest heartbeat, for the staleness histogram; -1 before the first
}

// egressQueue is the records bound for one endpoint that the current
// loop turn has produced so far: a run of encoded records of one size,
// back to back, which is what one segmented send carries.
type egressQueue struct {
	buf []byte
	seg int // size of each record in buf
}

// maxIDSpan bounds max−min over the participant ids a CES is started
// with, since it indexes a table by id.
const maxIDSpan = 1 << 16

// cesMetrics are the registry handles the per-message paths use,
// resolved once: a message then costs atomic adds, not the registry's
// mutex and a map lookup per metric.
type cesMetrics struct {
	dataPoints, batchesSealed          *metrics.Counter
	tradesReceived, heartbeatsReceived *metrics.Counter
	tradesForwarded, executions        *metrics.Counter
	execReportsSent, egressWrites      *metrics.Counter
	obHold, response, hbStaleness      *metrics.Histogram
}

// NewCES validates the static configuration and binds the socket, so
// its address is known before the participants are started. Call Start
// with the participants' addresses to begin trading.
func NewCES(cfg CESConfig) (*CES, error) {
	if cfg.TickInterval <= 0 || cfg.Ticks <= 0 || cfg.Delta <= 0 || cfg.Tau <= 0 {
		return nil, fmt.Errorf("node: CES needs positive TickInterval, Ticks, Delta and Tau")
	}
	if cfg.Adaptive != nil {
		if cfg.StragglerRTT <= 0 {
			return nil, fmt.Errorf("node: Adaptive thresholds need StragglerRTT > 0 as the cap")
		}
		if cfg.ProbeInterval == 0 {
			cfg.ProbeInterval = cfg.Tau
		}
	}
	if cfg.CaptureRTT > 0 && cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = cfg.CaptureRTT
	}
	if cfg.Kappa <= 0 {
		cfg.Kappa = 0.25
	}
	ep, err := transport.Listen(cfg.Listen)
	if err != nil {
		return nil, err
	}
	if cfg.Symbols <= 0 {
		cfg.Symbols = 1
	}
	c := &CES{
		cfg: cfg, loop: rt.NewLoop(), ep: ep, engine: lob.NewEngine(),
		reg:      metrics.NewRegistry(),
		buf:      make([]byte, 0, wire.MaxSize),
		proberOf: make(map[market.ParticipantID]*transport.Prober),
	}
	c.onMsg = c.onMessage
	c.m = cesMetrics{
		dataPoints: c.reg.Counter("data_points"), batchesSealed: c.reg.Counter("batches_sealed"),
		tradesReceived: c.reg.Counter("trades_received"), heartbeatsReceived: c.reg.Counter("heartbeats_received"),
		tradesForwarded: c.reg.Counter("trades_forwarded"), executions: c.reg.Counter("executions"),
		execReportsSent: c.reg.Counter("exec_reports_sent"), egressWrites: c.reg.Counter("egress_writes"),
		hbStaleness: c.reg.Histogram("hb_staleness_ns"), obHold: c.reg.Histogram("ob_hold_ns"),
		response: c.reg.Histogram("response_ns"),
	}
	registerSocket(c.reg, ep)
	registerLoop(c.reg, c.loop)
	c.reg.Func("gso_disabled", ep.GSODisabled)
	cfg.Flight.SetNode(market.NodeCES)
	if cfg.Flight != nil {
		c.reg.Func("flight_ring_dropped", cfg.Flight.Dropped)
	}
	c.batch = core.NewBatcher(sim.FromDuration(cfg.Delta), cfg.Kappa)
	c.quotes = feed.New(feed.Config{Seed: cfg.FeedSeed ^ 0xfeed, Symbols: cfg.Symbols})
	// The reverse path is also served over framed TCP (same host, its
	// own port): participants that want guaranteed in-order delivery of
	// trades and heartbeats dial TCPAddr instead of the UDP socket.
	tcp, err := transport.ListenTCP(ep.LocalAddr().IP.String() + ":0")
	if err != nil {
		ep.Close()
		return nil, err
	}
	c.tcp = tcp
	return c, nil
}

// TCPAddr returns the framed-TCP reverse-path address.
func (c *CES) TCPAddr() net.Addr { return c.tcp.Addr() }

// Start wires the participant set and begins generating market data. A
// CES whose Start fails has closed both its listeners; where there is no
// loop to run it on, Start fails with an error wrapping
// errors.ErrUnsupported.
func (c *CES) Start(mps []MPAddr) error {
	if !rt.Supported() {
		c.closeListeners()
		return errUnsupported
	}
	if len(mps) == 0 {
		c.closeListeners()
		return fmt.Errorf("node: CES needs at least one MP")
	}
	c.cfg.MPs = mps
	parts := make([]market.ParticipantID, len(mps))
	for i, mp := range mps {
		parts[i] = mp.ID
	}
	lo, hi := int(slices.Min(parts)), int(slices.Max(parts))
	if hi-lo >= maxIDSpan {
		c.closeListeners()
		return fmt.Errorf("node: participant ids %d..%d span more than %d", lo, hi, maxIDSpan)
	}
	c.peers, c.peerBase = make([]peer, hi-lo+1), lo
	epOf := make(map[netip.AddrPort]int, len(mps))
	for _, mp := range mps {
		a, err := resolve(mp.Addr)
		if err != nil {
			c.closeListeners()
			return fmt.Errorf("node: MP %d addr %q: %w", mp.ID, mp.Addr, err)
		}
		c.addrs = append(c.addrs, a)
		ep, seen := epOf[a]
		if !seen {
			ep = len(c.eps)
			epOf[a] = ep
			c.eps = append(c.eps, a)
		}
		c.peers[int(mp.ID)-lo] = peer{addr: a, ep: ep, lastHB: -1}
	}
	c.egress = make([]egressQueue, len(c.eps))
	for i := range c.egress {
		c.egress[i].buf = make([]byte, 0, transport.MaxSegments*wire.MaxSize)
	}
	c.loop.OnTurnEnd(c.flush)
	if c.cfg.Adaptive != nil {
		c.policy = core.NewAdaptiveThreshold(*c.cfg.Adaptive, sim.FromDuration(c.cfg.StragglerRTT))
	}
	var policy core.ThresholdPolicy // typed-nil pitfall: only set when present
	if c.policy != nil {
		policy = c.policy
	}
	c.ob = core.NewOrderingBuffer(core.OrderingBufferConfig{
		Participants: parts,
		Sched:        c.loop,
		Forward:      c.onForward,
		Threshold:    policy,
		StragglerRTT: sim.FromDuration(c.cfg.StragglerRTT),
		GenTime:      c.genTime,
		Flight:       c.cfg.Flight,
		OnStraggler: func(ev core.StragglerEvent) {
			// Runs on the loop goroutine; gauges are atomic, so scrapes
			// never cross into the loop.
			v := int64(0)
			if ev.Straggler {
				v = 1
			}
			c.reg.Gauge(fmt.Sprintf("straggler_mp_%d", ev.MP)).Set(v)
			c.reg.Counter("straggler_transitions").Inc()
		},
	})

	c.reg.Func("ob_queued", func() int64 { return int64(c.Queued()) })
	c.reg.Func("stragglers", func() int64 {
		return ask(c.loop, func() int64 { return int64(len(c.ob.Stragglers())) })
	})
	c.reg.Func("batches_delivered_min", func() int64 {
		return ask(c.loop, func() int64 {
			// Coarse progress gauge: the lowest watermark point across
			// participants — how far the slowest MP has provably gotten.
			min := int64(-1)
			for _, p := range parts {
				wm, ok := c.ob.Watermark(p)
				if !ok {
					continue
				}
				if min < 0 || int64(wm.Point) < min {
					min = int64(wm.Point)
				}
			}
			return min
		})
	})
	for _, p := range parts {
		p := p
		// Watermark lag: newest generated point minus the participant's
		// watermark point — how far behind the gate this MP's reports are.
		c.reg.Func(fmt.Sprintf("wm_lag_points_mp_%d", p), func() int64 {
			return ask(c.loop, func() int64 {
				wm, ok := c.ob.Watermark(p)
				if !ok {
					return -1
				}
				return int64(len(c.genPoints)) - int64(wm.Point)
			})
		})
	}
	// Watch fails only once the loop runs; Run, only if descriptors run
	// out, and then the loop stops.
	c.loop.Watch(c.ep.RawConn(), func() bool { return c.ep.Drain(c.onMsg, readBudget) }) //nolint:errcheck
	c.loop.Watch(c.tcp.RawConn(), c.accept)                                              //nolint:errcheck
	go c.loop.Run()                                                                      //nolint:errcheck
	c.loop.Schedule(0, (*cesTicker)(c), 0)
	c.scheduleOBTick()
	if c.cfg.ProbeInterval > 0 {
		for _, p := range parts {
			pr := transport.NewProber(p, 0)
			if c.cfg.CaptureRTT > 0 {
				pr.EnableCapture(sim.FromDuration(c.cfg.CaptureRTT))
			}
			c.probers = append(c.probers, pr)
			c.proberOf[p] = pr
		}
		c.scheduleProbes()
	}
	if c.policy != nil {
		c.reg.Func("adaptive_threshold_ns", func() int64 {
			return ask(c.loop, func() int64 { return int64(c.policy.Threshold(c.loop.Now())) })
		})
	}
	return nil
}

// scheduleProbes runs the TWAMP-light loop: one probe per MP per
// interval, sent on the market-data socket; replies come back on the
// reverse path and land in onMessage.
func (c *CES) scheduleProbes() {
	ival := sim.FromDuration(c.cfg.ProbeInterval)
	var probe func()
	probe = func() {
		now := c.loop.Now()
		for i, pr := range c.probers {
			c.buf = wire.AppendProbe(c.buf[:0], pr.Next(now))
			c.ep.Write(c.buf, c.addrs[i]) //nolint:errcheck // UDP loss is part of the model
		}
		c.reg.Counter("probes_sent").Add(int64(len(c.probers)))
		c.loop.At(now+ival, probe)
	}
	c.loop.At(c.loop.Now()+ival, probe)
}

// Metrics exposes the node's operational registry: counters
// (data_points, batches_sealed, trades_received, heartbeats_received,
// retx_requests, retx_rejected, trades_forwarded, executions,
// exec_reports_sent — execution-report datagrams, one per fill per
// distinct endpoint, counted when queued — egress_writes — the syscalls
// that sent the egress queues (those reports and retransmitted points),
// so egress_writes/exec_reports_sent is how well a turn's fills shared
// their sends — straggler_transitions, probes_sent,
// probe_rtt_invalid), live gauges
// (ob_queued, stragglers, batches_delivered_min, adaptive_threshold_ns
// when Adaptive is on, per-MP wm_lag_points_mp_<id> and
// straggler_mp_<id>; socket_rcvbuf_bytes — the receive buffer the kernel
// granted — socket_sndbuf_bytes — its send buffer, read and never set —
// udp_rx_dropped — datagrams it dropped at the socket — udp_rx_errors —
// its failed reads — and gso_disabled — 1 once the egress queues go out
// one syscall per record because the platform or the kernel refused a
// segmented send, else 0; alarm_arms — the times the loop's alarm, a
// timerfd, has been set, a system call each — and loop_wakes and
// loop_turns — the times the loop has been woken from a sleep, and the
// turns it has begun; the loop-served gauges read -1 once the node has
// stopped), and histograms
// (ob_hold_ns, response_ns, hb_staleness_ns, probe_rtt_ns, and
// timer_late_ns — how far past its deadline each loop timer fired). Mount
// Metrics().Handler() (JSON) or Metrics().PromHandler() (Prometheus
// text) on any HTTP mux.
func (c *CES) Metrics() *metrics.Registry { return c.reg }

// StartCES is the one-shot variant of NewCES + Start for configurations
// whose participant addresses are known upfront.
func StartCES(cfg CESConfig) (*CES, error) {
	c, err := NewCES(cfg)
	if err != nil {
		return nil, err
	}
	if err := c.Start(cfg.MPs); err != nil {
		return nil, err
	}
	return c, nil
}

// Addr returns the CES socket address (for MPs to dial).
func (c *CES) Addr() *net.UDPAddr { return c.ep.LocalAddr() }

// RTTTrace returns the replayable RTT trace captured for mp (nil when
// CaptureRTT was off, the participant is unknown, or no valid probe
// reply ever arrived). Safe to call while the node runs and after Stop.
func (c *CES) RTTTrace(mp market.ParticipantID) *trace.Trace {
	pr := c.proberOf[mp] // map is read-only after Start
	if pr == nil {
		return nil
	}
	return pr.Trace()
}

// Stop shuts the node down.
func (c *CES) Stop() {
	c.stop.Do(func() {
		c.loop.Stop()
		c.closeListeners()
	})
}

func (c *CES) closeListeners() {
	c.ep.Close()
	c.tcp.Close()
}

// accept is the TCP listener's drain: it has the loop read each waiting
// connection until its stream ends (TCPConn.Drain counts how), then stop
// reading it and close it.
func (c *CES) accept() bool {
	for i := 0; i < readBudget; i++ {
		tc, err := c.tcp.Accept()
		if tc == nil || err != nil {
			return false // none waiting; a failed accept is tried again when the listener is next readable
		}
		drain := func() bool {
			more, err := tc.Drain(c.onMsg, readBudget)
			if err != nil {
				c.loop.Unwatch(tc.RawConn())
				tc.Close() //nolint:errcheck // the stream has ended
			}
			return more
		}
		if c.loop.Watch(tc.RawConn(), drain) != nil {
			tc.Close() //nolint:errcheck // never read
		}
	}
	return true
}

// genTime is the OB's GenTime: when point p was generated, on the loop.
func (c *CES) genTime(p market.PointID) sim.Time {
	if p == 0 || int(p) > len(c.genTimes) {
		return 0
	}
	return c.genTimes[p-1]
}

func (c *CES) scheduleOBTick() {
	tau := sim.FromDuration(c.cfg.Tau)
	var tick func()
	tick = func() {
		c.ob.Tick()
		c.loop.At(c.loop.Now()+tau, tick)
	}
	c.loop.At(c.loop.Now()+tau, tick)
}

// tick generates the i-th market data point and multicasts it.
func (c *CES) tick(i int) {
	if i >= c.cfg.Ticks {
		return
	}
	now := c.loop.Now()
	final := i+1 >= c.cfg.Ticks
	c.nextTick = tickDeadline(c.nextTick, now, sim.FromDuration(c.cfg.TickInterval), final)
	id, batch, last := c.batch.Next(now, c.nextTick)
	if final {
		last = true
	}
	q := c.quotes.Next()
	dp := market.DataPoint{
		ID: id, Batch: batch, Last: last, Gen: now,
		Symbol: q.Symbol, BidSide: q.BidMoved,
		Ctx: market.TraceCtx{Origin: market.NodeCES},
	}
	if q.BidMoved {
		dp.Price, dp.Qty = q.Bid, q.BidSize
	} else {
		dp.Price, dp.Qty = q.Ask, q.AskSize
	}
	c.genTimes = append(c.genTimes, now)
	c.genPoints = append(c.genPoints, dp)
	c.m.dataPoints.Inc()
	if last {
		c.m.batchesSealed.Inc()
	}
	if f := c.cfg.Flight; f.Enabled() {
		f.Emit(flight.Event{At: now, Kind: flight.KindGen, Point: dp.ID, Batch: dp.Batch})
		if last {
			f.Emit(flight.Event{At: now, Kind: flight.KindSeal, Point: dp.ID, Batch: dp.Batch})
		}
	}
	c.buf = wire.AppendMarketData(c.buf[:0], dp)
	for _, a := range c.addrs {
		c.ep.Write(c.buf, a) //nolint:errcheck // UDP loss is part of the model
	}
	if !final {
		c.loop.Schedule(c.nextTick, (*cesTicker)(c), i+1)
	}
}

// tickDeadline is the market-data schedule: given the deadline the tick
// that just ran was armed for (due) and the time it actually ran (now),
// it returns the next tick's deadline, or -1 after the final tick. The
// schedule advances by whole intervals from its own deadlines, not from
// fire times, so a timer that fires late delays one tick and not every
// tick after it: the feed holds its configured rate. A tick a whole
// interval late or more has missed periods; those are dropped and the
// schedule restarts from now, rather than sent as a burst the release
// buffers would have to pace out again.
func tickDeadline(due, now, interval sim.Time, final bool) sim.Time {
	if final {
		return -1
	}
	if next := due + interval; next > now {
		return next
	}
	return now + interval
}

// cesTicker is the CES as the sim.Handler of its market-data timer; the
// event's arg is the tick index, so re-arming needs no closure.
type cesTicker CES

// Fire generates tick i.
func (c *cesTicker) Fire(i int) { (*CES)(c).tick(i) }

// peerOf finds a participant by id; nil for an id the CES was not
// started with (ids arrive off the socket).
func (c *CES) peerOf(id market.ParticipantID) *peer {
	i := int(id) - c.peerBase
	if i < 0 || i >= len(c.peers) || !c.peers[i].addr.IsValid() {
		return nil
	}
	return &c.peers[i]
}

// onMessage dispatches reverse-path traffic (loop goroutine). m is the
// endpoint's or a TCP connection's, valid for this call only.
func (c *CES) onMessage(m *wire.Msg) {
	switch m.Type {
	case wire.TTrade:
		t := c.trades.New()
		*t = m.Trade
		t.Ctx.Hop++ // network ingress at the CES node
		c.m.tradesReceived.Inc()
		c.ob.OnTrade(t)
	case wire.THeartbeat:
		hb := m.Heartbeat
		hb.Ctx.Hop++ // network ingress at the CES node
		c.m.heartbeatsReceived.Inc()
		if p := c.peerOf(hb.MP); p != nil {
			now := c.loop.Now()
			if p.lastHB >= 0 {
				c.m.hbStaleness.Observe(int64(now - p.lastHB))
			}
			p.lastHB = now
		}
		c.ob.OnHeartbeat(hb)
	case wire.TRetx:
		c.reg.Counter("retx_requests").Inc()
		c.retransmit(core.RetxRequest{MP: m.Retx.MP, From: m.Retx.From, To: m.Retx.To})
	case wire.TProbeReply:
		r := m.ProbeReply
		now := c.loop.Now()
		var rtt sim.Time
		if pr := c.proberOf[r.MP]; pr != nil {
			rtt = pr.Observe(r, now) // records into the RTT capture when enabled
		} else {
			rtt = transport.ProbeRTT(r, now)
		}
		if rtt < 0 {
			c.reg.Counter("probe_rtt_invalid").Inc()
			return
		}
		c.reg.Histogram("probe_rtt_ns").Observe(int64(rtt))
		if c.policy != nil {
			c.policy.Observe(r.MP, rtt, now)
		}
	}
}

// retransmit resends lost points to one MP (the out-of-band slow path):
// a burst to one endpoint, so it rides that endpoint's egress queue.
// The range comes straight off the socket: point ids start at 1, so an
// empty or inverted range is rejected, and To is clamped to what has
// been generated before it sizes anything.
func (c *CES) retransmit(r core.RetxRequest) {
	p := c.peerOf(r.MP)
	if p == nil {
		return
	}
	if r.From < 1 || r.To < r.From {
		c.reg.Counter("retx_rejected").Inc()
		return
	}
	for i := r.From; i <= min(r.To, market.PointID(len(c.genPoints))); i++ {
		c.buf = wire.AppendMarketData(c.buf[:0], c.genPoints[i-1])
		c.enqueue(p.ep)
	}
}

func (c *CES) onForward(t *market.Trade) {
	side := lob.Buy
	if t.Side == market.Sell {
		side = lob.Sell
	}
	// execs is borrowed from the engine until its next submit, which is
	// this function's next call: everything below consumes it in place.
	_, execs, err := c.engine.Submit(t.Symbol, int32(t.MP), side, t.Price, t.Qty)
	if err != nil {
		return // duplicate/bad orders are dropped, not fatal
	}
	c.mu.Lock()
	c.forwarded = append(c.forwarded, t)
	c.mu.Unlock()
	c.m.tradesForwarded.Inc()
	c.m.executions.Add(int64(len(execs)))
	c.m.obHold.Observe(int64(t.Forwarded - t.Enqueued))
	c.m.response.Observe(int64(t.RT))
	if f := c.cfg.Flight; f.Enabled() {
		f.Emit(flight.Event{
			At: c.loop.Now(), Kind: flight.KindMatch,
			MP: t.MP, Seq: t.Seq, DC: t.DC, Aux: int64(t.FinalPos),
			Hop: t.Ctx.Hop,
		})
	}
	c.cfg.Auditor.OnForward(t, c.loop.Now())
	// Execution reports go back to both counterparties (the market data
	// stream is the public side; these are the private fills): one
	// encoding, queued once for each distinct endpoint among the maker's
	// and the taker's, and sent with the rest of this turn's (flush). The
	// report names both owners, so two ids behind one address (a gateway,
	// a self-cross) are served by one datagram; an owner the CES does not
	// know has no endpoint and suppresses nothing.
	for _, e := range execs {
		c.buf = wire.AppendExec(c.buf[:0], wire.Exec{
			Maker: uint64(e.Maker), Taker: uint64(e.Taker),
			MakerOwner: e.MakerOwner, TakerOwner: e.TakerOwner,
			Price: e.Price, Qty: e.Qty, Seq: e.Seq,
		})
		maker, taker := c.endpointOf(e.MakerOwner), c.endpointOf(e.TakerOwner)
		if maker >= 0 {
			c.report(maker)
		}
		if taker >= 0 && taker != maker {
			c.report(taker)
		}
	}
	if c.cfg.OnForward != nil {
		c.cfg.OnForward(t)
	}
}

// endpointOf returns the index in c.eps of an exec owner's address, -1
// for an owner the CES was not started with.
func (c *CES) endpointOf(owner int32) int {
	if p := c.peerOf(market.ParticipantID(owner)); p != nil {
		return p.ep
	}
	return -1
}

// report queues the execution report in c.buf for one endpoint.
func (c *CES) report(ep int) {
	c.enqueue(ep)
	c.m.execReportsSent.Inc()
}

// enqueue appends the record in c.buf to endpoint ep's egress queue. A
// queue is a run of equal-size records in arrival order: a record of
// another size sends what is queued first, and a queue that has reached
// what one segmented send carries is sent at once, so order to an
// endpoint is the order of the enqueues.
func (c *CES) enqueue(ep int) {
	q := &c.egress[ep]
	if len(q.buf) > 0 && len(c.buf) != q.seg {
		c.send(ep)
	}
	q.seg = len(c.buf)
	q.buf = append(q.buf, c.buf...)
	if len(q.buf) == transport.MaxSegments*q.seg {
		c.send(ep)
	}
}

// send writes endpoint ep's queue as one segmented send and empties it.
// egress_writes grows by the syscalls that took: one, or one per record
// where the endpoint cannot segment. Only the loop writes to c.ep, so
// the difference is this send's.
func (c *CES) send(ep int) {
	q := &c.egress[ep]
	before := c.ep.Writes()
	c.ep.WriteSegments(q.buf, q.seg, c.eps[ep]) //nolint:errcheck // UDP loss is part of the model
	c.m.egressWrites.Add(c.ep.Writes() - before)
	q.buf = q.buf[:0]
}

// flush is the loop's end-of-turn func: everything the turn's messages
// and timers queued leaves now, one send per endpoint that has any.
func (c *CES) flush() {
	for ep := range c.egress {
		if len(c.egress[ep].buf) > 0 {
			c.send(ep)
		}
	}
}

// Forwarded snapshots the trades forwarded to the ME so far, in order.
// The slice is the caller's; the trades are the CES's, valid and
// unchanged for its life, and read-only.
func (c *CES) Forwarded() []*market.Trade {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*market.Trade, len(c.forwarded))
	copy(out, c.forwarded)
	return out
}

// Executions reports fills so far: the loop's executions counter.
func (c *CES) Executions() int { return int(c.m.executions.Value()) }

// Queued reports trades currently held in the ordering buffer, read on
// the loop; -1 once the node has stopped. Only meaningful once the node
// has quiesced.
func (c *CES) Queued() int { return ask(c.loop, c.ob.Queued) }

// Strategy decides how an MP reacts to a delivered market data point:
// whether to trade, after what response time, and with what order.
type Strategy func(dp market.DataPoint) (respond bool, rt time.Duration, side market.Side, price, qty int64)

// MPConfig configures a live market participant (with its co-located
// release buffer).
type MPConfig struct {
	ID     market.ParticipantID
	Listen string // RB ingress for market data
	CES    string // CES UDP endpoint for trades/heartbeats/retx
	// CESTCP, when set, carries the reverse path over framed TCP
	// (guaranteed in-order delivery) instead of UDP.
	CESTCP string

	Delta    time.Duration
	Tau      time.Duration
	Strategy Strategy

	// OnDeliver, if set, observes batch deliveries (loop goroutine). The
	// batch and its Points are borrowed for the call: the release buffer
	// recycles both for a later batch as soon as the delivery returns, so
	// an observer copies what it keeps.
	OnDeliver func(b *market.Batch)
	// OnExec, if set, observes this participant's fills (loop goroutine).
	OnExec func(e wire.Exec)

	// Flight, if non-nil, records the RB-side lifecycle (batch delivery
	// with pacing gap, trade submission with delivery-clock tag) stamped
	// with this node's monotonic loop clock.
	Flight *flight.Recorder

	// Auditor, if non-nil, observes every batch delivery (OnDeliver,
	// loop clock) so δ-gap pacing and batch atomicity are audited live
	// where delivery actually happens — on the participant's node.
	Auditor *audit.Auditor
}

// MP is a running market participant node.
type MP struct {
	cfg   MPConfig
	loop  *rt.Loop
	ep    *transport.Endpoint
	rb    *core.ReleaseBuffer
	ces   netip.AddrPort
	tcp   *transport.TCPClient // non-nil when the reverse path is TCP
	reg   *metrics.Registry
	m     mpMetrics
	seq   market.TradeSeq
	fills int

	// Loop goroutine only. buf holds the one message being sent. pending
	// parks the trades the strategy has decided on while their response
	// times pass: the MP is the sim.Handler of those timers (mpResponder)
	// and the event's arg is the slot. trade is the one being submitted;
	// the RB tags it and send encodes it before respond returns, and
	// nothing keeps the pointer. nextPoint mirrors the RB's in-order
	// expectation, to bound the gap a data point may open.
	buf       []byte
	pending   sim.Slab[response]
	trade     market.Trade
	nextPoint market.PointID

	// Delivery pacing state (loop goroutine only).
	lastDeliver sim.Time
	delivered   bool

	stop sync.Once
}

// response is a trade an MP has decided on and will submit once its
// response time has passed.
type response struct {
	trigger     market.PointID
	symbol      uint32
	side        market.Side
	price, qty  int64
	deliveredAt sim.Time
}

// maxPointGap bounds how far ahead of the in-order stream a data point
// may be. The release buffer records every point of a gap as missing,
// one map entry each, so a point id taken straight off the socket would
// otherwise cost the loop up to 2^63 insertions. A point further ahead
// is dropped and counted (data_rejected). The bound is about what one
// retransmission burst can land in the socket's receive buffer; a
// participant that far behind is a straggler, not a repair.
const maxPointGap = 1 << 12

// mpMetrics are the registry handles of the per-message paths (see
// cesMetrics).
type mpMetrics struct {
	batchesDelivered, tradesSubmitted, fills *metrics.Counter
	deliveryGap, response                    *metrics.Histogram
}

// StartMP binds the participant's socket and starts its release buffer.
// Where there is no loop to run it on it fails with an error wrapping
// errors.ErrUnsupported.
func StartMP(cfg MPConfig) (*MP, error) {
	if !rt.Supported() {
		return nil, errUnsupported
	}
	if cfg.Strategy == nil {
		return nil, fmt.Errorf("node: MP needs a Strategy")
	}
	if cfg.Delta <= 0 || cfg.Tau <= 0 {
		return nil, fmt.Errorf("node: MP needs positive Delta and Tau")
	}
	ep, err := transport.Listen(cfg.Listen)
	if err != nil {
		return nil, err
	}
	ces, err := resolve(cfg.CES)
	if err != nil {
		ep.Close()
		return nil, fmt.Errorf("node: CES addr %q: %w", cfg.CES, err)
	}
	m := &MP{
		cfg: cfg, loop: rt.NewLoop(), ep: ep, ces: ces, reg: metrics.NewRegistry(),
		buf: make([]byte, 0, wire.MaxSize), nextPoint: 1,
	}
	m.m = mpMetrics{
		batchesDelivered: m.reg.Counter("batches_delivered"), tradesSubmitted: m.reg.Counter("trades_submitted"),
		fills: m.reg.Counter("fills"), deliveryGap: m.reg.Histogram("delivery_gap_ns"),
		response: m.reg.Histogram("response_ns"),
	}
	registerSocket(m.reg, ep)
	registerLoop(m.reg, m.loop)
	cfg.Flight.SetNode(market.NodeOfMP(cfg.ID))
	if cfg.Flight != nil {
		m.reg.Func("flight_ring_dropped", cfg.Flight.Dropped)
	}
	if cfg.CESTCP != "" {
		tcp, err := transport.DialTCP(cfg.CESTCP)
		if err != nil {
			ep.Close()
			return nil, err
		}
		m.tcp = tcp
	}
	m.rb = core.NewReleaseBuffer(core.ReleaseBufferConfig{
		MP:      cfg.ID,
		Delta:   sim.FromDuration(cfg.Delta),
		Tau:     sim.FromDuration(cfg.Tau),
		Sched:   m.loop,
		Deliver: m.onBatch,
		Send:    m.send,
		Flight:  cfg.Flight,

		SendHeartbeat: m.sendHeartbeat,
		// onBatch copies each point it answers into m.pending and keeps
		// nothing of the batch; OnDeliver and the Auditor are held to the same.
		RecycleBatches: true,
	})
	// As the CES's; onMessage is bound once, since a method value taken
	// per drain allocates.
	onMsg := m.onMessage
	m.loop.Watch(m.ep.RawConn(), func() bool { return m.ep.Drain(onMsg, readBudget) }) //nolint:errcheck
	go m.loop.Run()                                                                    //nolint:errcheck
	m.loop.Post(m.rb.Start)
	return m, nil
}

// Addr returns the MP's RB ingress address (for the CES config).
func (m *MP) Addr() *net.UDPAddr { return m.ep.LocalAddr() }

// Metrics exposes the participant's operational registry: counters
// (batches_delivered, trades_submitted, fills, probes_reflected,
// data_rejected), the socket gauges socket_rcvbuf_bytes,
// socket_sndbuf_bytes, udp_rx_dropped and udp_rx_errors, the loop's
// alarm_arms, loop_wakes and loop_turns (see
// CES.Metrics), and histograms
// (delivery_gap_ns — inter-batch pacing on this node's clock —
// response_ns and timer_late_ns). Mount Metrics().Handler() or
// .PromHandler() to scrape.
func (m *MP) Metrics() *metrics.Registry { return m.reg }

// Stop shuts the node down.
func (m *MP) Stop() {
	m.stop.Do(func() {
		m.loop.Stop()
		m.ep.Close()
		if m.tcp != nil {
			m.tcp.Close()
		}
	})
}

// send carries the RB's tagged trades and retransmission requests to the
// CES (core.ReleaseBufferConfig.Send; heartbeats take sendHeartbeat).
// The *market.Trade is borrowed: it is encoded before send returns.
func (m *MP) send(v any) {
	switch v := v.(type) {
	case *market.Trade:
		m.buf = wire.AppendTrade(m.buf[:0], v)
	case core.RetxRequest:
		m.buf = wire.AppendRetx(m.buf[:0], wireRetx(v))
	default:
		return
	}
	m.write()
}

func (m *MP) sendHeartbeat(hb market.Heartbeat) {
	m.buf = wire.AppendHeartbeat(m.buf[:0], hb)
	m.write()
}

// write transmits the message in m.buf over the reverse path.
func (m *MP) write() {
	if m.tcp != nil {
		m.tcp.Write(m.buf) //nolint:errcheck
		return
	}
	m.ep.Write(m.buf, m.ces) //nolint:errcheck
}

// onMessage dispatches forward-path traffic (loop goroutine). msg is
// the endpoint's, valid for this call only.
func (m *MP) onMessage(msg *wire.Msg) {
	switch msg.Type {
	case wire.TMarketData:
		dp := msg.Data
		if dp.ID >= m.nextPoint+maxPointGap {
			m.reg.Counter("data_rejected").Inc()
			return
		}
		m.nextPoint = max(m.nextPoint, dp.ID+1)
		dp.Ctx.Hop++ // network ingress at the RB node
		m.rb.OnData(dp)
	case wire.TProbe:
		// TWAMP-light reflection: stamp receive and transmit on this
		// node's clock, reply over the reverse path (same channel the
		// heartbeats use, so the probe RTT measures what the OB's own
		// straggler estimate experiences).
		t2 := m.loop.Now()
		m.reg.Counter("probes_reflected").Inc()
		m.buf = wire.AppendProbeReply(m.buf[:0], transport.Reflect(msg.Probe, t2, m.loop.Now()))
		m.write()
	case wire.TExec:
		m.fills++
		m.m.fills.Inc()
		if m.cfg.OnExec != nil {
			m.cfg.OnExec(msg.Exec)
		}
	}
}

// Fills reports execution reports received so far (loop-external reads
// race with updates only in the benign monotone-counter sense, so the
// value is served through the loop); -1 once the node has stopped.
func (m *MP) Fills() int { return ask(m.loop, func() int { return m.fills }) }

// onBatch runs the participant's strategy against each delivered point.
func (m *MP) onBatch(b *market.Batch) {
	deliveredAt := m.loop.Now()
	m.m.batchesDelivered.Inc()
	if m.delivered {
		m.m.deliveryGap.Observe(int64(deliveredAt - m.lastDeliver))
	}
	m.lastDeliver, m.delivered = deliveredAt, true
	m.cfg.Auditor.OnDeliver(m.cfg.ID, b, deliveredAt)
	if m.cfg.OnDeliver != nil {
		m.cfg.OnDeliver(b)
	}
	for _, dp := range b.Points {
		respond, rtDelay, side, price, qty := m.cfg.Strategy(dp)
		if !respond {
			continue
		}
		slot := m.pending.Put(response{
			trigger: dp.ID, symbol: dp.Symbol, side: side, price: price, qty: qty,
			deliveredAt: deliveredAt,
		})
		m.loop.Schedule(deliveredAt+sim.FromDuration(rtDelay), (*mpResponder)(m), slot)
	}
}

// mpResponder is the MP as the sim.Handler of its response timers.
type mpResponder MP

// Fire submits the pending trade parked in slot.
func (m *mpResponder) Fire(slot int) { (*MP)(m).respond(slot) }

// respond submits the trade whose response time has passed.
func (m *MP) respond(slot int) {
	r := m.pending.Take(slot)
	m.seq++
	now := m.loop.Now()
	m.trade = market.Trade{
		MP: m.cfg.ID, Seq: m.seq, Symbol: r.symbol,
		Side: r.side, Price: r.price, Qty: r.qty,
		Trigger:   r.trigger,
		Submitted: now,
		// Ground truth is the *actual* response time — delivery
		// to submission as measured on this node's clock — not
		// the intended delay: under scheduler/GC pressure the
		// timer can fire late, and the trade really was slower.
		RT: now - r.deliveredAt,
	}
	m.m.tradesSubmitted.Inc()
	m.m.response.Observe(int64(m.trade.RT))
	m.rb.OnTrade(&m.trade) // tags the delivery clock, then send()
}
