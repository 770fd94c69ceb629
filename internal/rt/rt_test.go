package rt

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"dbo/internal/sim"
)

func startLoop(t *testing.T) *Loop {
	t.Helper()
	l := NewLoop()
	go l.Run()
	t.Cleanup(l.Stop)
	return l
}

func TestNowMonotonic(t *testing.T) {
	l := startLoop(t)
	a := l.Now()
	time.Sleep(2 * time.Millisecond)
	b := l.Now()
	if b <= a {
		t.Fatalf("clock not advancing: %v then %v", a, b)
	}
}

func TestPostRunsOnLoop(t *testing.T) {
	l := startLoop(t)
	ch := make(chan sim.Time, 1)
	l.Post(func() { ch <- l.Now() })
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("posted fn never ran")
	}
}

func TestAtFiresNearDeadline(t *testing.T) {
	l := startLoop(t)
	ch := make(chan sim.Time, 1)
	target := l.Now() + sim.Time(20*time.Millisecond)
	l.At(target, func() { ch <- l.Now() })
	select {
	case got := <-ch:
		if got < target {
			t.Fatalf("fired early: %v < %v", got, target)
		}
		if got > target+sim.Time(50*time.Millisecond) {
			t.Fatalf("fired far too late: %v vs %v", got, target)
		}
	case <-time.After(time.Second):
		t.Fatal("timer never fired")
	}
}

func TestAtInPastRunsPromptly(t *testing.T) {
	l := startLoop(t)
	ch := make(chan struct{}, 1)
	l.At(0, func() { ch <- struct{}{} })
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("past timer never ran")
	}
}

func TestTimersFireInOrder(t *testing.T) {
	l := startLoop(t)
	var order []int
	done := make(chan struct{})
	base := l.Now() + sim.Time(10*time.Millisecond)
	l.Post(func() {
		l.At(base+sim.Time(6*time.Millisecond), func() { order = append(order, 3); close(done) })
		l.At(base, func() { order = append(order, 1) })
		l.At(base+sim.Time(3*time.Millisecond), func() { order = append(order, 2) })
	})
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("timers never completed")
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v", order)
		}
	}
}

// Timers due at the same instant fire in the order At was called: the
// loop's timers sit in the simulator's queue and inherit its tie-break.
func TestEqualDeadlinesFireInAtOrder(t *testing.T) {
	l := startLoop(t)
	var order []int
	done := make(chan struct{})
	at := l.Now() + sim.Time(5*time.Millisecond)
	l.Post(func() {
		for i := 0; i < 20; i++ {
			i := i
			l.At(at, func() { order = append(order, i) })
		}
		l.At(at, func() { close(done) })
	})
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("timers never completed")
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
	if len(order) != 20 {
		t.Fatalf("%d of 20 timers fired", len(order))
	}
}

func TestTimerScheduledFromHandler(t *testing.T) {
	// RB pacing schedules follow-up timers from inside handlers.
	l := startLoop(t)
	var fired atomic.Int32
	done := make(chan struct{})
	var chain func()
	chain = func() {
		if fired.Add(1) == 5 {
			close(done)
			return
		}
		l.At(l.Now()+sim.Time(time.Millisecond), chain)
	}
	l.Post(chain)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("chain stalled at %d", fired.Load())
	}
}

func TestStopIdempotentAndHaltsRun(t *testing.T) {
	l := NewLoop()
	finished := make(chan struct{})
	go func() { l.Run(); close(finished) }()
	l.Stop()
	l.Stop()
	select {
	case <-finished:
	case <-time.After(time.Second):
		t.Fatal("Run did not return after Stop")
	}
}

func TestConcurrentPosters(t *testing.T) {
	l := startLoop(t)
	var count atomic.Int32
	const n = 1000
	for i := 0; i < 10; i++ {
		go func() {
			for j := 0; j < n/10; j++ {
				l.Post(func() { count.Add(1) })
			}
		}()
	}
	deadline := time.After(2 * time.Second)
	for count.Load() < n {
		select {
		case <-deadline:
			t.Fatalf("only %d of %d ran", count.Load(), n)
		case <-time.After(time.Millisecond):
		}
	}
}

func TestHandlersSingleThreaded(t *testing.T) {
	// No two handlers may run concurrently: guard with a non-atomic
	// counter under the race detector plus an explicit in-flight check.
	l := startLoop(t)
	var inFlight atomic.Int32
	var violations atomic.Int32
	var done atomic.Int32
	const n = 500
	for i := 0; i < n; i++ {
		l.Post(func() {
			if inFlight.Add(1) != 1 {
				violations.Add(1)
			}
			inFlight.Add(-1)
			done.Add(1)
		})
	}
	deadline := time.After(2 * time.Second)
	for done.Load() < n {
		select {
		case <-deadline:
			t.Fatal("handlers stalled")
		case <-time.After(time.Millisecond):
		}
	}
	if violations.Load() > 0 {
		t.Fatalf("%d concurrent handler executions", violations.Load())
	}
}

// A deadline already past is moved up to the moment of the call, so the
// lateness the loop reports for it is how long it waited to fire and
// not how long ago the caller's arithmetic started.
func TestScheduleInThePastClampsToNow(t *testing.T) {
	l := NewLoop()
	time.Sleep(5 * time.Millisecond) // the clock is well past 0
	late := make(chan sim.Time, 2)
	l.OnLate(func(by sim.Time) { late <- by })
	var order []int
	done := make(chan struct{})
	l.At(0, func() { order = append(order, 1) })
	l.At(-1, func() { order = append(order, 2); close(done) }) // equal once clamped: push order
	go l.Run()
	t.Cleanup(l.Stop)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("past timers never ran")
	}
	if !slices.Equal(order, []int{1, 2}) {
		t.Fatalf("order = %v, want [1 2]", order)
	}
	for i := 0; i < 2; i++ {
		if by := <-late; by < 0 || by >= sim.FromDuration(5*time.Millisecond) {
			t.Fatalf("timer %d scheduled at a past instant reported %v late: its deadline was not moved to the call", i, by)
		}
	}
}
