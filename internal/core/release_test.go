package core

import (
	"slices"
	"testing"

	"dbo/internal/clock"
	"dbo/internal/market"
	"dbo/internal/sim"
)

// rbFixture wires an RB to a kernel with recording callbacks.
type rbFixture struct {
	k     *sim.Kernel
	rb    *ReleaseBuffer
	dlvAt []sim.Time
	dlv   []*market.Batch
	late  []market.DataPoint
	sent  []any
}

func newRBFixture(t *testing.T, delta, tau sim.Time, local clock.Local) *rbFixture {
	t.Helper()
	f := &rbFixture{k: sim.NewKernel(1)}
	f.rb = NewReleaseBuffer(ReleaseBufferConfig{
		MP:          1,
		Delta:       delta,
		Tau:         tau,
		Sched:       f.k,
		Local:       local,
		Deliver:     func(b *market.Batch) { f.dlv = append(f.dlv, b); f.dlvAt = append(f.dlvAt, f.k.Now()) },
		DeliverLate: func(dp market.DataPoint) { f.late = append(f.late, dp) },
		Send:        func(v any) { f.sent = append(f.sent, v) },
	})
	return f
}

func dp(id market.PointID, batch market.BatchID, last bool) market.DataPoint {
	return market.DataPoint{ID: id, Batch: batch, Last: last}
}

func TestRBDeliversOnLastPoint(t *testing.T) {
	t.Parallel()
	f := newRBFixture(t, 20*sim.Microsecond, 0, nil)
	f.k.At(10, func() { f.rb.OnData(dp(1, 1, false)) })
	f.k.At(20, func() { f.rb.OnData(dp(2, 1, false)) })
	f.k.At(30, func() { f.rb.OnData(dp(3, 1, true)) })
	f.k.Run()
	if len(f.dlv) != 1 {
		t.Fatalf("deliveries = %d", len(f.dlv))
	}
	if f.dlvAt[0] != 30 {
		t.Fatalf("delivered at %v, want 30 (no pacing delay for first batch)", f.dlvAt[0])
	}
	b := f.dlv[0]
	if len(b.Points) != 3 || b.LastPoint() != 3 {
		t.Fatalf("batch = %+v", b)
	}
	if f.rb.PointsDelivered != 3 || f.rb.BatchesDelivered != 1 {
		t.Fatalf("counters = %d/%d", f.rb.PointsDelivered, f.rb.BatchesDelivered)
	}
}

func TestRBPacingEnforcesDelta(t *testing.T) {
	t.Parallel()
	delta := 20 * sim.Microsecond
	f := newRBFixture(t, delta, 0, nil)
	// Two single-point batches complete 5µs apart — much closer than δ.
	f.k.At(0, func() { f.rb.OnData(dp(1, 1, true)) })
	f.k.At(5*sim.Microsecond, func() { f.rb.OnData(dp(2, 2, true)) })
	f.k.Run()
	if len(f.dlvAt) != 2 {
		t.Fatalf("deliveries = %d", len(f.dlvAt))
	}
	if gap := f.dlvAt[1] - f.dlvAt[0]; gap < delta {
		t.Fatalf("inter-delivery gap %v < δ %v", gap, delta)
	}
	if f.dlvAt[1] != 20*sim.Microsecond {
		t.Fatalf("second delivery at %v, want exactly lastRelease+δ", f.dlvAt[1])
	}
}

func TestRBPacingQueueDrains(t *testing.T) {
	t.Parallel()
	// A burst of completed batches (as after a latency spike) drains at
	// exactly one batch per δ.
	delta := 10 * sim.Microsecond
	f := newRBFixture(t, delta, 0, nil)
	f.k.At(0, func() {
		for i := market.PointID(1); i <= 5; i++ {
			f.rb.OnData(dp(i, market.BatchID(i), true))
		}
	})
	f.k.Run()
	if len(f.dlvAt) != 5 {
		t.Fatalf("deliveries = %d", len(f.dlvAt))
	}
	for i := 1; i < 5; i++ {
		if gap := f.dlvAt[i] - f.dlvAt[i-1]; gap != delta {
			t.Fatalf("gap %d = %v, want δ", i, gap)
		}
	}
	if f.rb.QueueLen() != 0 {
		t.Fatalf("queue not drained: %d", f.rb.QueueLen())
	}
}

func TestRBNoGapWhenBatchesArriveSlowly(t *testing.T) {
	t.Parallel()
	// Batches arriving ≥ δ apart are delivered immediately (pacing adds
	// no delay when the network is well behaved, §4.2.1).
	f := newRBFixture(t, 10*sim.Microsecond, 0, nil)
	f.k.At(0, func() { f.rb.OnData(dp(1, 1, true)) })
	f.k.At(50*sim.Microsecond, func() { f.rb.OnData(dp(2, 2, true)) })
	f.k.Run()
	if f.dlvAt[0] != 0 || f.dlvAt[1] != 50*sim.Microsecond {
		t.Fatalf("deliveries at %v", f.dlvAt)
	}
}

func TestRBDeliveryClockTracksResponseTime(t *testing.T) {
	t.Parallel()
	f := newRBFixture(t, 20*sim.Microsecond, 0, nil)
	f.k.At(100, func() { f.rb.OnData(dp(1, 1, true)) })
	f.k.At(100+7*sim.Microsecond, func() {
		tr := &market.Trade{MP: 1, Seq: 1}
		f.rb.OnTrade(tr)
	})
	f.k.Run()
	if len(f.sent) != 1 {
		t.Fatalf("sent = %v", f.sent)
	}
	tr := f.sent[0].(*market.Trade)
	want := market.DeliveryClock{Point: 1, Elapsed: 7 * sim.Microsecond}
	if tr.DC != want {
		t.Fatalf("DC = %v, want %v", tr.DC, want)
	}
}

func TestRBClockUpdatesBeforeDeliver(t *testing.T) {
	t.Parallel()
	// A trade submitted synchronously from the Deliver callback (zero
	// response time) must see the new batch in its clock.
	f := newRBFixture(t, 20*sim.Microsecond, 0, nil)
	f.rb.cfg.Deliver = func(b *market.Batch) {
		f.rb.OnTrade(&market.Trade{MP: 1, Seq: 1})
	}
	f.k.At(50, func() { f.rb.OnData(dp(1, 1, true)) })
	f.k.Run()
	tr := f.sent[0].(*market.Trade)
	if tr.DC != (market.DeliveryClock{Point: 1, Elapsed: 0}) {
		t.Fatalf("DC = %v", tr.DC)
	}
}

func TestRBTradeBeforeAnyData(t *testing.T) {
	t.Parallel()
	f := newRBFixture(t, 20*sim.Microsecond, 0, nil)
	f.k.At(500, func() { f.rb.OnTrade(&market.Trade{MP: 1, Seq: 1}) })
	f.k.Run()
	tr := f.sent[0].(*market.Trade)
	if tr.DC.Point != 0 || tr.DC.Elapsed != 500 {
		t.Fatalf("pre-open DC = %v", tr.DC)
	}
}

func TestRBHeartbeats(t *testing.T) {
	t.Parallel()
	tau := 20 * sim.Microsecond
	f := newRBFixture(t, 20*sim.Microsecond, tau, nil)
	f.rb.Start()
	f.k.At(0, func() { f.rb.OnData(dp(1, 1, true)) })
	f.k.RunUntil(100 * sim.Microsecond)
	var beats []market.Heartbeat
	for _, v := range f.sent {
		if h, ok := v.(market.Heartbeat); ok {
			beats = append(beats, h)
		}
	}
	if len(beats) != 5 {
		t.Fatalf("heartbeats = %d, want 5 in 100µs at τ=20µs", len(beats))
	}
	for i := 1; i < len(beats); i++ {
		if beats[i].DC.Less(beats[i-1].DC) {
			t.Fatal("heartbeat clocks must be monotone")
		}
		if beats[i].MP != 1 {
			t.Fatal("wrong MP")
		}
	}
}

// SendHeartbeat, when set, takes the heartbeats off Send — the same
// values, in the same order — and leaves trades on it; when it is nil
// Send carries both.
func TestRBSendHeartbeatCarriesWhatSendWould(t *testing.T) {
	t.Parallel()
	run := func(typed bool) (viaSend, viaTyped []market.Heartbeat, trades int) {
		k := sim.NewKernel(1)
		cfg := ReleaseBufferConfig{
			MP: 3, Delta: 20 * sim.Microsecond, Tau: 10 * sim.Microsecond, Sched: k,
			Deliver: func(*market.Batch) {},
			Send: func(v any) {
				switch m := v.(type) {
				case market.Heartbeat:
					viaSend = append(viaSend, m)
				case *market.Trade:
					trades++
				}
			},
		}
		if typed {
			cfg.SendHeartbeat = func(hb market.Heartbeat) { viaTyped = append(viaTyped, hb) }
		}
		rb := NewReleaseBuffer(cfg)
		rb.Start()
		k.At(0, func() { rb.OnData(dp(1, 1, true)) })
		k.At(35*sim.Microsecond, func() { rb.OnTrade(&market.Trade{MP: 3, Seq: 1}) })
		k.RunUntil(100 * sim.Microsecond)
		return viaSend, viaTyped, trades
	}
	want, none, trades := run(false)
	if len(want) != 10 || len(none) != 0 || trades != 1 {
		t.Fatalf("SendHeartbeat nil: %d heartbeats and %d trades via Send, %d via SendHeartbeat; want 10, 1, 0",
			len(want), trades, len(none))
	}
	viaSend, got, trades := run(true)
	if len(viaSend) != 0 || trades != 1 {
		t.Fatalf("SendHeartbeat set: Send still saw %d heartbeats and %d trades; want 0 and 1", len(viaSend), trades)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("SendHeartbeat received %+v, Send would have received %+v", got, want)
	}
}

func TestRBStopHaltsHeartbeatsAndData(t *testing.T) {
	t.Parallel()
	f := newRBFixture(t, 20*sim.Microsecond, 10*sim.Microsecond, nil)
	f.rb.Start()
	f.k.At(25*sim.Microsecond, func() { f.rb.Stop() })
	f.k.At(30*sim.Microsecond, func() { f.rb.OnData(dp(1, 1, true)) })
	f.k.RunUntil(100 * sim.Microsecond)
	if len(f.dlv) != 0 {
		t.Fatal("stopped RB delivered data")
	}
	beats := 0
	for _, v := range f.sent {
		if _, ok := v.(market.Heartbeat); ok {
			beats++
		}
	}
	if beats != 2 {
		t.Fatalf("heartbeats after stop = %d, want 2 (at 10 and 20µs)", beats)
	}
}

func TestRBResumeRestartsHeartbeatsWithoutDoubling(t *testing.T) {
	t.Parallel()
	tau := 10 * sim.Microsecond
	f := newRBFixture(t, 20*sim.Microsecond, tau, nil)
	f.rb.Start()
	// Crash at 25µs, restart at 55µs. Beats land at 10, 20 (pre-crash)
	// and 65, 75, 85, 95 (fresh chain): six total. A doubled chain —
	// the pre-crash closure surviving Resume — would beat ~every 5µs.
	f.k.At(25*sim.Microsecond, func() { f.rb.Stop() })
	f.k.At(55*sim.Microsecond, func() { f.rb.Resume() })
	f.k.RunUntil(100 * sim.Microsecond)
	preResume := 0
	for _, v := range f.sent {
		if _, ok := v.(market.Heartbeat); ok {
			preResume++
		}
	}
	if preResume != 6 {
		t.Fatalf("heartbeats = %d, want 6 (2 pre-crash + 4 post-resume)", preResume)
	}
	// Resume on a running RB is a no-op: no extra chain.
	f.rb.Resume()
	f.k.RunUntil(140 * sim.Microsecond)
	beats := 0
	for _, v := range f.sent {
		if _, ok := v.(market.Heartbeat); ok {
			beats++
		}
	}
	if beats != 10 {
		t.Fatalf("heartbeats = %d, want 10 (no chain doubling)", beats)
	}
}

func TestRBResumeReleasesQueuedBatch(t *testing.T) {
	t.Parallel()
	f := newRBFixture(t, 20*sim.Microsecond, 0, nil)
	// Two complete batches arrive back-to-back: the first delivers
	// immediately, the second is pacing-held for δ. The RB crashes
	// before the scheduled release fires, so the batch stays queued.
	f.k.At(0, func() {
		f.rb.OnData(dp(1, 1, true))
		f.rb.OnData(dp(2, 2, true))
	})
	f.k.At(5*sim.Microsecond, func() { f.rb.Stop() })
	f.k.At(50*sim.Microsecond, func() { f.rb.Resume() })
	f.k.RunUntil(100 * sim.Microsecond)
	if len(f.dlv) != 2 {
		t.Fatalf("delivered %d batches, want 2 (second released after Resume)", len(f.dlv))
	}
	if f.dlvAt[1] < 50*sim.Microsecond {
		t.Fatalf("second batch delivered at %v, before the restart", f.dlvAt[1])
	}
}

func TestRBLossTriggersRetx(t *testing.T) {
	t.Parallel()
	f := newRBFixture(t, 20*sim.Microsecond, 0, nil)
	f.k.At(0, func() { f.rb.OnData(dp(1, 1, true)) })
	// Points 2 and 3 lost; point 4 arrives.
	f.k.At(30*sim.Microsecond, func() { f.rb.OnData(dp(4, 2, true)) })
	f.k.Run()
	var reqs []RetxRequest
	for _, v := range f.sent {
		if r, ok := v.(RetxRequest); ok {
			reqs = append(reqs, r)
		}
	}
	if len(reqs) != 1 || reqs[0].From != 2 || reqs[0].To != 3 {
		t.Fatalf("retx = %+v", reqs)
	}
	if f.rb.RetxRequested != 1 {
		t.Fatalf("counter = %d", f.rb.RetxRequested)
	}
	// Batch 2 still delivered; clock advanced to point 4.
	if len(f.dlv) != 2 {
		t.Fatalf("deliveries = %d", len(f.dlv))
	}
	if c := f.rb.Clock(); c.Point != 4 {
		t.Fatalf("clock = %v", c)
	}
}

func TestRBRetransmittedPointDeliveredLateWithoutClockUpdate(t *testing.T) {
	t.Parallel()
	f := newRBFixture(t, 20*sim.Microsecond, 0, nil)
	f.k.At(0, func() { f.rb.OnData(dp(1, 1, true)) })
	f.k.At(30*sim.Microsecond, func() { f.rb.OnData(dp(3, 2, true)) }) // 2 lost
	f.k.At(60*sim.Microsecond, func() { f.rb.OnData(dp(2, 2, false)) })
	f.k.Run()
	if len(f.late) != 1 || f.late[0].ID != 2 {
		t.Fatalf("late = %v", f.late)
	}
	if f.rb.LatePoints != 1 {
		t.Fatalf("LatePoints = %d", f.rb.LatePoints)
	}
	if c := f.rb.Clock(); c.Point != 3 {
		t.Fatalf("retransmission advanced the clock: %v", c)
	}
	// A duplicate retransmission is ignored.
	f.k.At(70*sim.Microsecond, func() { f.rb.OnData(dp(2, 2, false)) })
	f.k.Run()
	if len(f.late) != 1 {
		t.Fatal("duplicate retransmission delivered twice")
	}
}

func TestRBImplicitBatchCompletion(t *testing.T) {
	t.Parallel()
	// Last flag of batch 1 lost: the first point of batch 2 completes it.
	f := newRBFixture(t, 5*sim.Microsecond, 0, nil)
	f.k.At(0, func() { f.rb.OnData(dp(1, 1, false)) })
	f.k.At(10*sim.Microsecond, func() { f.rb.OnData(dp(2, 2, true)) })
	f.k.Run()
	if len(f.dlv) != 2 {
		t.Fatalf("deliveries = %d, want implicit completion of batch 1", len(f.dlv))
	}
	if f.dlv[0].ID != 1 || f.dlv[1].ID != 2 {
		t.Fatalf("batch order = %d, %d", f.dlv[0].ID, f.dlv[1].ID)
	}
}

func TestRBCloseMarker(t *testing.T) {
	t.Parallel()
	f := newRBFixture(t, 5*sim.Microsecond, 0, nil)
	f.k.At(0, func() { f.rb.OnData(dp(1, 1, false)) })
	f.k.At(10*sim.Microsecond, func() { f.rb.OnClose(CloseMarker{Batch: 1, Final: 1, Count: 1}) })
	// Mismatched marker is ignored.
	f.k.At(20*sim.Microsecond, func() { f.rb.OnClose(CloseMarker{Batch: 9}) })
	f.k.Run()
	if len(f.dlv) != 1 || f.dlv[0].LastPoint() != 1 {
		t.Fatalf("deliveries = %v", f.dlv)
	}
}

func TestRBWithDriftingLocalClock(t *testing.T) {
	t.Parallel()
	// An RB whose local clock is offset by 1h and drifts 0.02% still
	// paces correctly and produces sane elapsed values — DBO needs no
	// synchronization.
	local := clock.Drifting{Offset: 3600 * sim.Second, Rate: 0.0002}
	f := newRBFixture(t, 20*sim.Microsecond, 0, local)
	f.k.At(0, func() { f.rb.OnData(dp(1, 1, true)) })
	f.k.At(10*sim.Microsecond, func() { f.rb.OnData(dp(2, 2, true)) })
	f.k.At(12*sim.Microsecond, func() { f.rb.OnTrade(&market.Trade{MP: 1, Seq: 1}) })
	f.k.Run()
	if len(f.dlvAt) != 2 {
		t.Fatalf("deliveries = %d", len(f.dlvAt))
	}
	gap := f.dlvAt[1] - f.dlvAt[0]
	// Local gap must be ≥ δ; in global time that is δ/(1+rate) ≈ δ−4ns.
	if gap < 19990*sim.Nanosecond {
		t.Fatalf("paced gap = %v", gap)
	}
	tr := f.sent[0].(*market.Trade)
	if tr.DC.Point != 1 {
		t.Fatalf("DC = %v", tr.DC)
	}
	// Elapsed measured on the drifting clock: ~12µs ± drift.
	if tr.DC.Elapsed < 11990*sim.Nanosecond || tr.DC.Elapsed > 12010*sim.Nanosecond {
		t.Fatalf("elapsed = %v", tr.DC.Elapsed)
	}
}

func TestRBConfigPanics(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(1)
	ok := ReleaseBufferConfig{MP: 1, Delta: 1, Sched: k, Deliver: func(*market.Batch) {}, Send: func(any) {}}
	for name, mut := range map[string]func(c ReleaseBufferConfig) ReleaseBufferConfig{
		"zero delta": func(c ReleaseBufferConfig) ReleaseBufferConfig { c.Delta = 0; return c },
		"nil sched":  func(c ReleaseBufferConfig) ReleaseBufferConfig { c.Sched = nil; return c },
		"nil dlv":    func(c ReleaseBufferConfig) ReleaseBufferConfig { c.Deliver = nil; return c },
		"nil send":   func(c ReleaseBufferConfig) ReleaseBufferConfig { c.Send = nil; return c },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			NewReleaseBuffer(mut(ok))
		}()
	}
}

func TestRBSyncOffsetAlignsDelivery(t *testing.T) {
	t.Parallel()
	// §4.2.6 sync-assisted mode: the batch is held until G(last)+offset
	// even though pacing would allow immediate release.
	f := newRBFixture(t, 5*sim.Microsecond, 0, nil)
	f.rb.cfg.SyncOffset = 100 * sim.Microsecond
	// Point generated at 10µs arrives quickly at 20µs.
	f.k.At(20*sim.Microsecond, func() {
		f.rb.OnData(market.DataPoint{ID: 1, Batch: 1, Last: true, Gen: 10 * sim.Microsecond})
	})
	f.k.Run()
	if len(f.dlvAt) != 1 || f.dlvAt[0] != 110*sim.Microsecond {
		t.Fatalf("delivered at %v, want G+offset = 110µs", f.dlvAt)
	}
}

func TestRBSyncOffsetLateBatchImmediate(t *testing.T) {
	t.Parallel()
	f := newRBFixture(t, 5*sim.Microsecond, 0, nil)
	f.rb.cfg.SyncOffset = 50 * sim.Microsecond
	// The batch arrives after its target: release immediately (a
	// CloudEx-style overrun would stall; DBO must not).
	f.k.At(200*sim.Microsecond, func() {
		f.rb.OnData(market.DataPoint{ID: 1, Batch: 1, Last: true, Gen: 10 * sim.Microsecond})
	})
	f.k.Run()
	if len(f.dlvAt) != 1 || f.dlvAt[0] != 200*sim.Microsecond {
		t.Fatalf("delivered at %v, want immediate 200µs", f.dlvAt)
	}
}

func TestRBSyncOffsetStillPaces(t *testing.T) {
	t.Parallel()
	// Sync targets closer together than δ: pacing still wins.
	delta := 20 * sim.Microsecond
	f := newRBFixture(t, delta, 0, nil)
	f.rb.cfg.SyncOffset = 5 * sim.Microsecond
	f.k.At(10*sim.Microsecond, func() {
		f.rb.OnData(market.DataPoint{ID: 1, Batch: 1, Last: true, Gen: 10 * sim.Microsecond})
	})
	f.k.At(12*sim.Microsecond, func() {
		f.rb.OnData(market.DataPoint{ID: 2, Batch: 2, Last: true, Gen: 12 * sim.Microsecond})
	})
	f.k.Run()
	if len(f.dlvAt) != 2 {
		t.Fatalf("deliveries = %d", len(f.dlvAt))
	}
	if gap := f.dlvAt[1] - f.dlvAt[0]; gap < delta {
		t.Fatalf("gap %v < δ with sync offset enabled", gap)
	}
}

// oneTimer is a manual scheduler holding the one timer an RB arms at a
// time: the test moves the clock and fires it.
type oneTimer struct {
	now, at sim.Time
	fn      func()
	firing  bool
}

func (s *oneTimer) Now() sim.Time            { return s.now }
func (s *oneTimer) At(t sim.Time, fn func()) { s.at, s.fn = t, fn }

// fire runs armed timers in turn, each at its instant, until none is left.
func (s *oneTimer) fire() {
	for s.fn != nil {
		fn := s.fn
		s.fn = nil
		s.now = s.at
		s.firing = true
		fn()
		s.firing = false
	}
}

// Batches that complete closer together than δ take the pacing branch:
// a release scheduled on the timer. It schedules the func the RB bound at
// construction, so a paced release costs no heap object.
func TestPacedReleaseZeroAlloc(t *testing.T) {
	const delta = 20 * sim.Microsecond
	s := &oneTimer{}
	var paced int
	rb := NewReleaseBuffer(ReleaseBufferConfig{
		MP: 1, Delta: delta, Sched: s, RecycleBatches: true,
		Deliver: func(*market.Batch) {
			if s.firing {
				paced++
			}
		},
		Send: func(any) {},
	})
	var id market.PointID
	step := func() {
		// Two batches complete δ/4 apart: at least the second must wait.
		for i := 0; i < 2; i++ {
			id++
			s.now += delta / 4
			rb.OnData(dp(id, market.BatchID(id), true))
		}
		s.fire()
	}
	for i := 0; i < 64; i++ {
		step() // warm: the queue and the free list reach their working size
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("a paced release allocates %.1f objects per two batches, want 0", allocs)
	}
	if paced == 0 || rb.QueueLen() != 0 {
		t.Fatalf("paced deliveries = %d, queue = %d: the pacing branch was not exercised", paced, rb.QueueLen())
	}
	if got, want := rb.BatchesDelivered, int(id); got != want {
		t.Fatalf("delivered %d of %d batches", got, want)
	}
}
