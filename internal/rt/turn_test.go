package rt

import (
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"dbo/internal/market"
	"dbo/internal/sim"
	"dbo/internal/wire"
)

// roundOf is how many values one measured round carries. The measured
// rounds wait with a bare receive: a time.After would be the only thing
// in the round that allocates. A loop that drops the round's last value
// shows as the test binary's timeout.
const roundOf = 64

// fireCounter is a sim.Handler that signals when it is fired with a
// negative arg.
type fireCounter struct {
	sum  int
	done chan struct{}
}

func (c *fireCounter) Fire(arg int) {
	c.sum += arg
	if arg < 0 {
		c.done <- struct{}{}
	}
}

func scheduleRound(l *Loop) func() {
	h := &fireCounter{done: make(chan struct{}, 1)}
	return func() {
		for i := 1; i < roundOf; i++ {
			l.Schedule(l.Now(), h, i)
		}
		l.Schedule(l.Now(), h, -1)
		<-h.done
	}
}

// postRound posts roundOf funcs bound once and waits for the last.
func postRound(l *Loop) func() {
	done := make(chan struct{}, 1)
	sum := 0
	add, last := func() { sum++ }, func() { done <- struct{}{} }
	return func() {
		for i := 1; i < roundOf; i++ {
			l.Post(add)
		}
		l.Post(last)
		<-done
	}
}

// socketRound writes roundOf datagrams to an endpoint l watches (register
// it before l runs) and waits for the loop to have read them all. The
// bare receive keeps the round itself allocation-free; loopback with a
// 4 MiB socket buffer does not lose a round.
func socketRound(t testing.TB, l *Loop) func() {
	done := make(chan struct{}, 1)
	ep := watchEndpoint(t, l, 16, func(m *wire.Msg) {
		if m.Type == wire.TClose {
			done <- struct{}{}
		}
	})
	hb, end := wire.AppendHeartbeat(nil, market.Heartbeat{MP: 1}), wire.AppendClose(nil, wire.Close{Batch: 1})
	to := ep.LocalAddr().AddrPort()
	return func() {
		for i := 1; i <= roundOf; i++ {
			b := hb
			if i == roundOf {
				b = end
			}
			if err := ep.Write(b, to); err != nil {
				t.Fatal(err)
			}
		}
		<-done
	}
}

func TestLoopScheduleZeroAlloc(t *testing.T) {
	round := scheduleRound(startLoop(t))
	round() // grows the timer heap and the loop's due buffer
	if a := testing.AllocsPerRun(50, round); a != 0 {
		t.Fatalf("%.2f allocations per round of %d Schedules, want 0", a, roundOf)
	}
}

func TestScheduleFiresHandlerWithArg(t *testing.T) {
	l := startLoop(t)
	h := &fireCounter{done: make(chan struct{}, 1)}
	l.Schedule(l.Now()+sim.Time(2*time.Millisecond), h, -7)
	select {
	case <-h.done:
	case <-time.After(time.Second):
		t.Fatal("scheduled handler never fired")
	}
	if h.sum != -7 {
		t.Fatalf("handler saw arg sum %d, want -7", h.sum)
	}
}

// turnLog records what a loop did between two end-of-turn calls. The
// handlers and the end-of-turn func all run on the loop goroutine; each
// non-empty stretch is handed to the test over the channel.
type turnLog struct {
	cur   []string
	turns chan []string
}

func (g *turnLog) Fire(arg int) { g.cur = append(g.cur, "timer"+strconv.Itoa(arg)) }

func (g *turnLog) end() {
	if len(g.cur) > 0 { // the half of a turn in which nothing ran says nothing
		g.turns <- g.cur
		g.cur = nil
	}
}

func (g *turnLog) want(t *testing.T, want ...string) {
	t.Helper()
	select {
	case got := <-g.turns:
		if !slices.Equal(got, want) {
			t.Fatalf("before an end-of-turn call the loop ran %v, want %v", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("no end-of-turn call after %v", want)
	}
}

// The end-of-turn func runs once the posted funcs and the sockets are
// drained — after every message of the turn, not after each — and again
// once the due timers have fired, so a turn that only fires a timer is
// followed by it too.
func TestEndOfTurnRunsAfterInboxAndTimers(t *testing.T) {
	l := NewLoop()
	g := &turnLog{turns: make(chan []string, 8)} // more than the turns below, so end never blocks the loop
	ep := watchEndpoint(t, l, 8, func(m *wire.Msg) { g.cur = append(g.cur, "msg"+strconv.Itoa(int(m.Heartbeat.Sent))) })
	msg := func(n int) {
		if err := ep.Write(wire.AppendHeartbeat(nil, market.Heartbeat{MP: 1, Sent: sim.Time(n)}), ep.LocalAddr().AddrPort()); err != nil {
			t.Error(err)
		}
	}
	l.OnTurnEnd(g.end)
	for i := 1; i <= 3; i++ {
		msg(i)
	}
	go l.Run()
	t.Cleanup(l.Stop)
	g.want(t, "msg1", "msg2", "msg3")

	l.Schedule(l.Now(), g, 7) // nothing to read: a timer-only turn
	g.want(t, "timer7")

	// One turn with both halves: the posted func runs in the drain; the
	// timer it arms is already due and fires in the same turn, after an
	// end-of-turn call of its own; the datagram it writes is found by the
	// look at the turn's end and read in the next turn.
	l.Post(func() {
		g.cur = append(g.cur, "post")
		msg(4)
		l.Schedule(0, g, 8)
	})
	g.want(t, "post")
	g.want(t, "timer8")
	g.want(t, "msg4")
}

// The seam costs a call: a loop with an end-of-turn func registered
// still reads its socket, runs what is posted and fires its timers
// without allocating (AllocsPerRun counts the whole process's mallocs,
// the loop goroutine's included).
func TestEndOfTurnZeroAlloc(t *testing.T) {
	l := NewLoop()
	var calls atomic.Int64
	l.OnTurnEnd(func() { calls.Add(1) })
	reads, posts, timers := socketRound(t, l), postRound(l), scheduleRound(l)
	go l.Run()
	t.Cleanup(l.Stop)
	round := func() { reads(); posts(); timers() }
	round() // grows the loop's buffers and the timer heap to a round
	if a := testing.AllocsPerRun(50, round); a != 0 {
		t.Fatalf("%.2f allocations per round with an end-of-turn func, want 0", a)
	}
	if calls.Load() == 0 {
		t.Fatal("the end-of-turn func never ran")
	}
}
