package rt

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"dbo/internal/sim"
)

// onFallback runs f with every loop it starts on the runtime-timer
// alarm, as on a platform without timerfd.
func onFallback(t *testing.T, f func(*testing.T)) {
	coarse.Store(true)
	defer coarse.Store(false)
	f(t)
}

// Every test that has a loop wait out a deadline, once more on the
// fallback: elsewhere than Linux it is the only alarm there is.
func TestTimersOnTheFallback(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    func(*testing.T)
	}{
		{"AtFiresNearDeadline", TestAtFiresNearDeadline},
		{"AtInPastRunsPromptly", TestAtInPastRunsPromptly},
		{"TimersFireInOrder", TestTimersFireInOrder},
		{"EqualDeadlinesFireInAtOrder", TestEqualDeadlinesFireInAtOrder},
		{"TimerScheduledFromHandler", TestTimerScheduledFromHandler},
		{"StopIdempotentAndHaltsRun", TestStopIdempotentAndHaltsRun},
		{"ScheduleFiresHandlerWithArg", TestScheduleFiresHandlerWithArg},
		{"ScheduleInThePastClampsToNow", TestScheduleInThePastClampsToNow},
		{"LoopScheduleZeroAlloc", TestLoopScheduleZeroAlloc},
		{"InboxWakesSleepingLoop", TestInboxWakesSleepingLoop},
		{"EndOfTurnRunsAfterInboxAndTimers", TestEndOfTurnRunsAfterInboxAndTimers},
		{"EndOfTurnZeroAlloc", TestEndOfTurnZeroAlloc},
		{"ArmOnlyForAnEarlierDeadline", TestArmOnlyForAnEarlierDeadline},
		{"ArmZeroAlloc", TestArmZeroAlloc},
		{"TimerLatenessUnderAQuantum", TestTimerLatenessUnderAQuantum},
		{"RunLeavesNoGoroutineOrDescriptor", TestRunLeavesNoGoroutineOrDescriptor},
	} {
		t.Run(tc.name, func(t *testing.T) { onFallback(t, tc.f) })
	}
}

// running returns a started loop whose Run has made its alarm, so
// Precise and Arms read what the loop will use.
func running(t *testing.T) *Loop {
	t.Helper()
	l := startLoop(t)
	up := make(chan struct{})
	l.Post(func() { close(up) })
	<-up
	return l
}

// lateness fires n timers of duration d, one at a time, on an otherwise
// idle loop — the state in which the runtime rounds a timer up to its
// poller's millisecond — and returns their sorted lateness as OnLate
// reports it.
func lateness(t *testing.T, d time.Duration, n int) []time.Duration {
	t.Helper()
	l := NewLoop()
	var late []time.Duration
	l.OnLate(func(by sim.Time) { late = append(late, time.Duration(by)) })
	go l.Run()
	t.Cleanup(l.Stop)
	h := &fireCounter{done: make(chan struct{}, 1)}
	for i := 0; i < n; i++ {
		l.Schedule(l.Now()+sim.FromDuration(d), h, -1)
		select {
		case <-h.done:
		case <-time.After(5 * time.Second):
			t.Fatalf("the %v timer never fired", d)
		}
	}
	l.Stop() // late is the loop's until it has stopped adding to it
	if len(late) != n {
		t.Fatalf("OnLate saw %d of %d fires", len(late), n)
	}
	slices.Sort(late)
	return late
}

// A timer on an idle loop fires well inside a scheduling quantum of its
// deadline. On the runtime timer this reads 0.8–1.0 ms for both
// durations: under a millisecond it is rounded up to one, over it the
// sub-millisecond rest is. The log is the point on a CI runner: it says
// which alarm the runner has.
func TestTimerLatenessUnderAQuantum(t *testing.T) {
	precise := running(t).Precise()
	for _, d := range []time.Duration{300 * time.Microsecond, 1300 * time.Microsecond} {
		late := lateness(t, d, 50)
		p50 := late[len(late)/2]
		t.Logf("precise=%v %v timer: late p10 %v p50 %v p90 %v", precise, d, late[len(late)/10], p50, late[len(late)*9/10])
		if precise && p50 >= 400*time.Microsecond {
			t.Errorf("%v timer: median lateness %v on a timerfd, want < 400µs", d, p50)
		}
	}
}

// A loop that messages wake goes back to sleep on the alarm it has: it
// is set again only for a deadline earlier than the one it is set for,
// or once that one has passed.
func TestArmOnlyForAnEarlierDeadline(t *testing.T) {
	l := NewLoop()
	handled := make(chan struct{}, 1)
	in := NewInbox(l, func(*msg) { handled <- struct{}{} })
	// Each timer reports how often the alarm had been set when it fired.
	slow, quick := make(chan int64, 1), make(chan int64, 1)
	l.At(l.Now()+sim.FromDuration(50*time.Millisecond), func() { slow <- l.Arms() })
	go l.Run()
	t.Cleanup(l.Stop)
	for i := 0; i < 100; i++ {
		in.Put(&msg{n: i})
		<-handled
	}
	asleep := make(chan struct{})
	l.Post(func() { close(asleep) }) // the turn after the last value's has ended in a sleep
	<-asleep
	if got := l.Arms(); got != 1 {
		t.Fatalf("alarm set %d times over 100 message-woken sleeps with one timer pending, want 1", got)
	}

	start := time.Now()
	l.At(l.Now()+sim.FromDuration(time.Millisecond), func() { quick <- l.Arms() })
	select {
	case got := <-quick:
		if got != 2 {
			t.Fatalf("alarm set %d times when a deadline earlier than the armed one fired, want 2", got)
		}
	case <-slow:
		t.Fatal("the 50 ms timer fired before the 1 ms one scheduled after it")
	}
	if took := time.Since(start); took > 10*time.Millisecond {
		t.Fatalf("a 1 ms timer scheduled behind a 50 ms one took %v: the alarm was not moved up", took)
	}
	// The alarm has gone off, so the later deadline needs it set again.
	if got := <-slow; got != 3 {
		t.Fatalf("alarm set %d times when the later deadline fired, want 3", got)
	}
}

func TestArmZeroAlloc(t *testing.T) {
	l := NewLoop()
	a := newAlarm(l)
	defer a.close()
	at := l.Now() + sim.FromDuration(time.Hour)
	if n := testing.AllocsPerRun(100, func() {
		at -= sim.FromDuration(time.Second) // ever earlier: each call sets it
		a.arm(l.Now(), at)
	}); n != 0 {
		t.Fatalf("%.2f allocations per arm, want 0", n)
	}
	if got := l.Arms(); got != 101 {
		t.Fatalf("%d of 101 arms set the alarm", got)
	}
}

// The reader goroutine waits in the netpoller like a socket reader: no
// thread, no P. A goroutine blocked in a system call of its own (the
// futex designs of DESIGN §8.9) shows as [syscall] and keeps its P from
// the rest of the process until sysmon retakes it.
func TestAlarmReaderParksInTheNetpoller(t *testing.T) {
	if !running(t).Precise() {
		t.Skip("no timerfd here: the alarm is a runtime timer and has no reader")
	}
	var reader string
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		buf := make([]byte, 1<<16)
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "rt.(*alarm).read") {
				reader = g
			}
		}
		if strings.Contains(reader, "[IO wait") {
			return
		}
	}
	t.Fatalf("the alarm's reader is not parked in the netpoller:\n%s", reader)
}

// Run makes its alarm and Run closes it: a hundred loops later the
// process has the goroutines and descriptors it started with.
func TestRunLeavesNoGoroutineOrDescriptor(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			return 0 // no procfs: the goroutine count still stands
		}
		return len(ents)
	}
	cycle := func() {
		l := NewLoop()
		stopped := make(chan struct{})
		go func() { l.Run(); close(stopped) }()
		fired := make(chan struct{})
		l.At(l.Now()+sim.FromDuration(100*time.Microsecond), func() { close(fired) })
		<-fired
		l.Stop()
		<-stopped
	}
	cycle() // whatever the first use of the poller and the timers leaves stays
	gs, ds := runtime.NumGoroutine(), fds()
	for i := 0; i < 100; i++ {
		cycle()
	}
	// The goroutine that closes stopped may not have exited yet.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > gs && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if g, d := runtime.NumGoroutine(), fds(); g > gs || d > ds {
		t.Fatalf("after 100 Run/Stop: %d goroutines (from %d), %d descriptors (from %d)", g, gs, d, ds)
	}
}
