package rt

import (
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbo/internal/sim"
)

// msg stands in for a decoded wire message: a value big enough that
// boxing it would allocate.
type msg struct {
	n   int
	pad [12]int
}

// roundOf is how many values one measured round carries; the last one
// is negative and makes the handler signal the round's end.
const roundOf = 64

// The measured rounds wait with a bare receive: a time.After would be
// the only thing in the round that allocates. A loop that drops the
// round's last value shows as the test binary's timeout.

// inboxRound returns a function that puts roundOf values and waits for
// the loop to have handled them all.
func inboxRound(l *Loop) func() {
	done := make(chan struct{}, 1)
	sum := 0
	in := NewInbox(l, func(m *msg) {
		sum += m.n
		if m.n < 0 {
			done <- struct{}{}
		}
	})
	return func() {
		var m msg
		for i := 1; i < roundOf; i++ {
			m.n = i
			in.Put(&m)
		}
		m.n = -1
		in.Put(&m)
		<-done
	}
}

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

// postRound and atRound are the closure forms the typed calls replace:
// like a node's receive path did, every function closes over the
// message it carries.
func postRound(l *Loop) func() {
	done := make(chan struct{}, 1)
	sum := 0
	return func() {
		for i := 1; i < roundOf; i++ {
			m := msg{n: i}
			l.Post(func() { sum += m.n })
		}
		l.Post(func() { done <- struct{}{} })
		<-done
	}
}

func atRound(l *Loop) func() {
	done := make(chan struct{}, 1)
	sum := 0
	return func() {
		for i := 1; i < roundOf; i++ {
			i := i
			l.At(l.Now(), func() { sum += i })
		}
		l.At(l.Now(), func() { done <- struct{}{} })
		<-done
	}
}

// AllocsPerRun counts the whole process's mallocs, so these cover the
// putting goroutine and the loop's swap and drain alike.
func TestInboxZeroAlloc(t *testing.T) {
	round := inboxRound(startLoop(t))
	round() // grows both of the inbox's slices to a round
	if a := testing.AllocsPerRun(50, round); a != 0 {
		t.Fatalf("%.2f allocations per round of %d Puts, want 0", a, roundOf)
	}
}

func TestLoopScheduleZeroAlloc(t *testing.T) {
	round := scheduleRound(startLoop(t))
	round() // grows the timer heap and the loop's due buffer
	if a := testing.AllocsPerRun(50, round); a != 0 {
		t.Fatalf("%.2f allocations per round of %d Schedules, want 0", a, roundOf)
	}
}

// Values reach the handler in the order their Puts took the loop's
// lock, whichever goroutine put them: producers draw a ticket and Put
// it inside one critical section, and the handler must see the tickets
// count up.
func TestInboxFIFOAcrossProducers(t *testing.T) {
	l := startLoop(t)
	const producers, each = 8, 500
	done := make(chan struct{})
	next, bad := 1, 0
	in := NewInbox(l, func(m *msg) {
		if m.n != next {
			bad++
		}
		next++
		if next > producers*each {
			close(done)
		}
	})
	var mu sync.Mutex
	ticket := 0
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				mu.Lock()
				ticket++
				in.Put(&msg{n: ticket})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("the handler saw %d of %d values", next-1, producers*each)
	}
	if bad != 0 {
		t.Fatalf("%d of %d values reached the handler out of Put order", bad, producers*each)
	}
}

// Put wakes the loop only when the inbox goes from empty to non-empty,
// so that transition must wake a loop asleep on its hour-long timer —
// every time it happens, not just the first.
func TestInboxWakesSleepingLoop(t *testing.T) {
	l := startLoop(t)
	handled := make(chan struct{}, 1)
	in := NewInbox(l, func(*msg) { handled <- struct{}{} })
	for i := 0; i < 3; i++ {
		time.Sleep(10 * time.Millisecond) // the loop has nothing to do and goes to sleep
		in.Put(&msg{n: i})
		select {
		case <-handled:
		case <-time.After(time.Second):
			t.Fatalf("Put %d did not wake the loop", i)
		}
	}
}

// Two inboxes on one loop are both drained, and a value put from inside
// a handler (the loop goroutine itself) is not lost.
func TestInboxesShareALoop(t *testing.T) {
	l := startLoop(t)
	done := make(chan int, 1)
	var b *Inbox[msg]
	a := NewInbox(l, func(m *msg) { b.Put(&msg{n: m.n + 1}) })
	b = NewInbox(l, func(m *msg) { done <- m.n })
	a.Put(&msg{n: 41})
	select {
	case n := <-done:
		if n != 42 {
			t.Fatalf("got %d, want 42", n)
		}
	case <-time.After(time.Second):
		t.Fatal("a value put from a handler never arrived")
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

func benchRounds(b *testing.B, round func()) {
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += roundOf {
		round()
	}
}

// One socket→loop crossing: the typed inbox against the closure it
// replaces, per message, hand-off and dispatch included.
func BenchmarkInboxPut(b *testing.B)    { benchRounds(b, inboxRound(startBenchLoop(b))) }
func BenchmarkPostClosure(b *testing.B) { benchRounds(b, postRound(startBenchLoop(b))) }

// One due timer: Schedule with the component as handler against At with
// a closure per timer.
func BenchmarkSchedule(b *testing.B)  { benchRounds(b, scheduleRound(startBenchLoop(b))) }
func BenchmarkAtClosure(b *testing.B) { benchRounds(b, atRound(startBenchLoop(b))) }

func startBenchLoop(b *testing.B) *Loop {
	l := NewLoop()
	stopped := make(chan struct{})
	go func() { l.Run(); close(stopped) }()
	b.Cleanup(func() { l.Stop(); <-stopped })
	return l
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

// The end-of-turn func runs once the inboxes are drained — after every
// value of the turn, not after each — and again once the due timers
// have fired, so a turn that only fires a timer is followed by it too.
func TestEndOfTurnRunsAfterInboxAndTimers(t *testing.T) {
	l := NewLoop()
	g := &turnLog{turns: make(chan []string, 8)} // more than the turns below, so end never blocks the loop
	in := NewInbox(l, func(n *int) { g.cur = append(g.cur, "msg"+strconv.Itoa(*n)) })
	l.OnTurnEnd(g.end)
	for i := 1; i <= 3; i++ {
		in.Put(&i)
	}
	go l.Run()
	t.Cleanup(l.Stop)
	g.want(t, "msg1", "msg2", "msg3")

	l.Schedule(l.Now(), g, 7) // nothing in the inbox: a timer-only turn
	g.want(t, "timer7")

	// One turn with both halves: the posted func runs in the drain; the
	// timer it arms is already due and fires in the same turn, after an
	// end-of-turn call of its own; the value it puts is the next turn's.
	l.Post(func() {
		g.cur = append(g.cur, "post")
		four := 4
		in.Put(&four)
		l.Schedule(0, g, 8)
	})
	g.want(t, "post")
	g.want(t, "timer8")
	g.want(t, "msg4")
}

// The seam costs a call: a loop with an end-of-turn func registered
// still runs its messages and timers without allocating.
func TestEndOfTurnZeroAlloc(t *testing.T) {
	l := NewLoop()
	var calls atomic.Int64
	l.OnTurnEnd(func() { calls.Add(1) })
	msgs, timers := inboxRound(l), scheduleRound(l)
	go l.Run()
	t.Cleanup(l.Stop)
	round := func() { msgs(); timers() }
	round()
	if a := testing.AllocsPerRun(50, round); a != 0 {
		t.Fatalf("%.2f allocations per round with an end-of-turn func, want 0", a)
	}
	if calls.Load() == 0 {
		t.Fatal("the end-of-turn func never ran")
	}
}
