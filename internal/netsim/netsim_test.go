package netsim

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"dbo/internal/market"
	"dbo/internal/sim"
	"dbo/internal/trace"
)

func TestLinkDelivers(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(1)
	var got []any
	var at sim.Time
	l := NewLink(k, Constant(10), func(v any) { got = append(got, v); at = k.Now() })
	k.At(5, func() { l.Send("hello") })
	k.Run()
	if len(got) != 1 || got[0] != "hello" {
		t.Fatalf("got %v", got)
	}
	if at != 15 {
		t.Fatalf("arrival at %v, want 15", at)
	}
}

func TestLinkFIFOUnderLatencyDrop(t *testing.T) {
	t.Parallel()
	// Latency drops sharply between two sends; the second message must
	// not overtake the first (in-order delivery assumption, §3).
	k := sim.NewKernel(1)
	lat := func(at sim.Time) sim.Time {
		if at < 10 {
			return 100
		}
		return 1
	}
	var got []int
	l := NewLink(k, lat, func(v any) { got = append(got, v.(int)) })
	k.At(5, func() { l.Send(1) })  // arrives 105
	k.At(20, func() { l.Send(2) }) // raw arrival 21, clamped to 105
	k.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", got)
	}
}

func TestLinkFIFOManyMessages(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(3)
	rng := rand.New(rand.NewPCG(9, 9))
	lat := func(at sim.Time) sim.Time { return sim.Time(rng.Int64N(1000)) }
	var got []int
	l := NewLink(k, lat, func(v any) { got = append(got, v.(int)) })
	for i := 0; i < 500; i++ {
		i := i
		k.At(sim.Time(i*3), func() { l.Send(i) })
	}
	k.Run()
	if len(got) != 500 {
		t.Fatalf("delivered %d", len(got))
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("out of order at %d: %v", i, got[i])
		}
	}
}

func TestLinkLoss(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(1)
	delivered := 0
	l := NewLink(k, Constant(1), func(any) { delivered++ },
		WithLoss(0.5, rand.New(rand.NewPCG(4, 4))))
	k.At(0, func() {
		for i := 0; i < 1000; i++ {
			l.Send(i)
		}
	})
	k.Run()
	sent, dropped := l.Stats()
	if sent != 1000 {
		t.Fatalf("sent = %d", sent)
	}
	if dropped < 400 || dropped > 600 {
		t.Fatalf("dropped = %d, want ~500", dropped)
	}
	if delivered != sent-dropped {
		t.Fatalf("delivered %d, sent-dropped %d", delivered, sent-dropped)
	}
}

func TestDropNextDeterministic(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(1)
	var got []int
	l := NewLink(k, Constant(1), func(v any) { got = append(got, v.(int)) })
	l.DropNext(2)
	k.At(0, func() {
		if l.Send(1) != -1 {
			t.Error("send 1 should be dropped")
		}
		if l.Send(2) != -1 {
			t.Error("send 2 should be dropped")
		}
		if l.Send(3) == -1 {
			t.Error("send 3 should pass")
		}
	})
	k.Run()
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestSendReturnsArrivalTime(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(1)
	l := NewLink(k, Constant(42), func(any) {})
	var at sim.Time
	k.At(8, func() { at = l.Send("x") })
	k.Run()
	if at != 50 {
		t.Fatalf("arrival = %v, want 50", at)
	}
}

func TestPathRTT(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(1)
	p := &Path{
		Fwd: NewLink(k, Constant(30), func(any) {}),
		Rev: NewLink(k, Constant(12), func(any) {}),
	}
	if got := p.RTTAt(0); got != 42 {
		t.Fatalf("RTT = %v", got)
	}
}

func TestStarTopology(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(1)
	base := trace.Cloud(1).Generate()
	recvCount := make([]int, 3)
	fwd := func(i int) func(any) { return func(any) { recvCount[i]++ } }
	rev := func(i int) func(any) { return func(any) {} }
	paths := Star(k, StarConfig{Base: base, N: 3, Seed: 2}, fwd, rev)
	if len(paths) != 3 {
		t.Fatalf("paths = %d", len(paths))
	}
	// Different participants see different latency (random slices).
	l0 := paths[0].Fwd.LatencyAt(0)
	l1 := paths[1].Fwd.LatencyAt(0)
	l2 := paths[2].Fwd.LatencyAt(0)
	if l0 == l1 && l1 == l2 {
		t.Error("all participants share identical latency; slices not randomized")
	}
	k.At(0, func() {
		for _, p := range paths {
			p.Fwd.Send("tick")
		}
	})
	k.Run()
	for i, c := range recvCount {
		if c != 1 {
			t.Errorf("participant %d received %d", i, c)
		}
	}
}

func TestStarSkew(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(1)
	base := &trace.Trace{Step: sim.Microsecond, RTT: []sim.Time{100 * sim.Microsecond}}
	paths := Star(k, StarConfig{Base: base, N: 2, Seed: 1, Skew: []float64{1, 2}},
		func(int) func(any) { return func(any) {} },
		func(int) func(any) { return func(any) {} })
	if got := paths[0].Fwd.LatencyAt(0); got != 50*sim.Microsecond {
		t.Errorf("unskewed = %v", got)
	}
	if got := paths[1].Fwd.LatencyAt(0); got != 100*sim.Microsecond {
		t.Errorf("skewed = %v", got)
	}
}

func TestStarInvalidN(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for N=0")
		}
	}()
	Star(sim.NewKernel(1), StarConfig{Base: trace.Lab(1).Generate(), N: 0}, nil, nil)
}

func TestMaxRTTAt(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(1)
	mk := func(f, r sim.Time) *Path {
		return &Path{Fwd: NewLink(k, Constant(f), func(any) {}), Rev: NewLink(k, Constant(r), func(any) {})}
	}
	paths := []*Path{mk(10, 10), mk(30, 5), mk(1, 1)}
	if got := MaxRTTAt(paths, 0); got != 35 {
		t.Fatalf("MaxRTT = %v", got)
	}
}

// Property: regardless of latency function, delivery respects send order.
func TestPropertyFIFO(t *testing.T) {
	t.Parallel()
	f := func(seed uint64, gaps []uint8) bool {
		if len(gaps) == 0 {
			return true
		}
		k := sim.NewKernel(seed)
		rng := rand.New(rand.NewPCG(seed, 1))
		lat := func(sim.Time) sim.Time { return sim.Time(rng.Int64N(500)) }
		var got []int
		l := NewLink(k, lat, func(v any) { got = append(got, v.(int)) })
		at := sim.Time(0)
		for i, g := range gaps {
			at += sim.Time(g)
			i := i
			k.At(at, func() { l.Send(i) })
		}
		k.Run()
		if len(got) != len(gaps) {
			return false
		}
		for i := range got {
			if got[i] != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// A positive loss rate with no rng would make a silently lossless link;
// it is the same mistake EnableDup and EnableReorder panic on.
func TestLossWithoutRngPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("NewLink accepted WithLoss(0.1, nil)")
		}
	}()
	NewLink(sim.NewKernel(1), Constant(1), func(any) {}, WithLoss(0.1, nil))
}

// A delivery's slot is free by the time its receiver runs: a receiver
// that answers on the same link re-uses it, and a ping-pong of any
// length needs one slot.
func TestSlotReusableFromInsideRecv(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(1)
	var l *Link
	var got []int
	l = NewLink(k, Constant(10), func(v any) {
		n := v.(int)
		got = append(got, n)
		if n < 5 {
			l.Send(n + 1)
		}
	})
	l.Send(1)
	k.Run()
	if want := []int{1, 2, 3, 4, 5}; !slices.Equal(got, want) {
		t.Fatalf("deliveries = %v, want %v", got, want)
	}
	if n := l.inflight.Cap(); n != 1 {
		t.Fatalf("slab grew to %d slots for one message in flight at a time", n)
	}
}

// Slots are handed out and returned in any order: with reordering and
// duplication on, every payload still reaches the receiver exactly as
// often as it was scheduled, and the slab stops growing at the peak
// in-flight count.
func TestSlabSurvivesDupAndReorder(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(1)
	seen := map[int]int{}
	l := NewLink(k, Constant(50), func(v any) { seen[v.(int)]++ })
	l.EnableDup(0.3, 7, rand.New(rand.NewPCG(1, 1)))
	l.EnableReorder(0.3, 40, rand.New(rand.NewPCG(2, 2)))
	const n = 2000
	for i := 0; i < n; i++ {
		i := i
		k.At(sim.Time(i*3), func() { l.Send(i) })
	}
	k.Run()
	dup, _, _ := l.FaultStats()
	total := 0
	for i := 0; i < n; i++ {
		if seen[i] < 1 || seen[i] > 2 {
			t.Fatalf("payload %d delivered %d times", i, seen[i])
		}
		total += seen[i]
	}
	if total != n+dup {
		t.Fatalf("%d deliveries for %d sends and %d duplicates", total, n, dup)
	}
	// At most ⌈(50+40+7)/3⌉ originals plus their copies are in flight.
	if n := l.inflight.Cap(); n > 70 {
		t.Fatalf("slab grew to %d slots; slots are not being re-used", n)
	}
}

// Sending a pointer payload and delivering it allocates nothing: the
// payload parks in the link's slab and the kernel event carries the
// slot index.
func TestLinkSendZeroAlloc(t *testing.T) {
	k := sim.NewKernel(1)
	got := 0
	l := NewLink(k, Constant(50), func(any) { got++ })
	msg := &market.Trade{MP: 1, Seq: 1}
	round := func() {
		for i := 0; i < 64; i++ {
			l.Send(msg)
		}
		k.Run()
	}
	round() // grow the slab and the kernel's queue to their working size
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("send + delivery allocates %v objects per 64 messages, want 0", allocs)
	}
	if got == 0 {
		t.Fatal("nothing delivered")
	}
}
