package rt

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dbo/internal/market"
	"dbo/internal/sim"
	"dbo/internal/transport"
	"dbo/internal/wire"
)

// onFallback runs f with every loop it makes off the epoll set — a
// channel for wake-ups and a runtime timer for the alarm — as on a
// platform without one.
func onFallback(t *testing.T, f func(*testing.T)) {
	coarse.Store(true)
	defer coarse.Store(false)
	f(t)
}

// Every test that has a loop sleep, once more on the fallback: elsewhere
// than Linux it is the only way a loop sleeps there is.
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
		{"KickNeverStrandsASleepingLoop", TestKickNeverStrandsASleepingLoop},
		{"WatchWakesSleepingLoop", TestWatchWakesSleepingLoop},
		{"SocketFloodDoesNotStarveTimers", TestSocketFloodDoesNotStarveTimers},
	} {
		t.Run(tc.name, func(t *testing.T) { onFallback(t, tc.f) })
	}
}

// running returns a started loop whose Run has made its poller, so
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
	l.open(nil)
	defer l.close()
	at := l.Now() + sim.FromDuration(time.Hour)
	if n := testing.AllocsPerRun(100, func() {
		at -= sim.FromDuration(time.Second) // ever earlier: each call sets it
		l.arm(l.Now(), at, false)
	}); n != 0 {
		t.Fatalf("%.2f allocations per arm, want 0", n)
	}
	if got := l.Arms(); got != 101 {
		t.Fatalf("%d of 101 arms set the alarm", got)
	}
}

// An idle loop waits in the netpoller like a socket reader: no thread,
// no P. A goroutine blocked in a system call of its own — the futex
// designs of DESIGN §8.9, or an epoll_wait with a timeout — shows as
// [syscall] and keeps its P from the rest of the process until sysmon
// retakes it.
func TestLoopParksInTheNetpoller(t *testing.T) {
	if !running(t).Precise() {
		t.Skip("no epoll set here: the loop sleeps on a channel")
	}
	var loop string
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		buf := make([]byte, 1<<16)
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "rt.(*Loop).Run") {
				loop = g
			}
		}
		if strings.Contains(loop, "[IO wait") {
			t.Log(strings.SplitN(loop, "\n", 2)[0])
			return
		}
	}
	t.Fatalf("the idle loop is not parked in the netpoller:\n%s", loop)
}

// Run makes its poller and Run closes it: a hundred loops, each watching
// a socket, later the process has the goroutines and descriptors it
// started with. A loop that is never run opens nothing.
func TestRunLeavesNoGoroutineOrDescriptor(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			return 0 // no procfs: the goroutine count still stands
		}
		return len(ents)
	}
	hb := wire.AppendHeartbeat(nil, market.Heartbeat{MP: 1})
	cycle := func() {
		l := NewLoop()
		read := make(chan struct{}, 1)
		ep := watchEndpoint(t, l, 8, func(*wire.Msg) { read <- struct{}{} })
		stopped := make(chan struct{})
		go func() { l.Run(); close(stopped) }()
		fired := make(chan struct{})
		l.At(l.Now()+sim.FromDuration(100*time.Microsecond), func() { close(fired) })
		<-fired
		if err := ep.Write(hb, ep.LocalAddr().AddrPort()); err != nil {
			t.Fatal(err)
		}
		<-read
		l.Stop()
		<-stopped
		ep.Close()
	}
	cycle() // whatever the first use of the poller and the timers leaves stays
	gs, ds := runtime.NumGoroutine(), fds()
	for i := 0; i < 100; i++ {
		cycle()
	}
	for i := 0; i < 100; i++ {
		NewLoop().Watch(nil, nil)
	}
	// The goroutine that closes stopped may not have exited yet.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > gs && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if g, d := runtime.NumGoroutine(), fds(); g > gs || d > ds {
		t.Fatalf("after 100 Run/Stop and 100 loops never run: %d goroutines (from %d), %d descriptors (from %d)", g, gs, d, ds)
	}
}

// watchEndpoint has l watch a fresh loopback endpoint, draining at most
// budget datagrams a turn into h, and returns it.
func watchEndpoint(t testing.TB, l *Loop, budget int, h func(*wire.Msg)) *transport.Endpoint {
	t.Helper()
	ep, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	l.Watch(ep.RawConn(), func() bool { return ep.Drain(h, budget) })
	return ep
}

// Every way of handing a loop work from another goroutine wakes it when
// it is asleep, however the hand-over interleaves with its going to
// sleep. Eight goroutines take turns handing it a thousand items each —
// Put, Post and Schedule in rotation — one item at a time: the one whose
// turn it is spins until its last item has been handled and hands the
// next over at once, while the loop is finishing that turn or going to
// sleep; between turns the loop sleeps. An item handed over between the
// loop's last look for work and its sleep, with no wake-up written, is
// never handled, for nothing comes after it to wake the loop. Once every
// item is handled the loop stays asleep: a wake-up that is never cleared
// would keep it turning.
func TestKickNeverStrandsASleepingLoop(t *testing.T) {
	const producers, each, run = 8, 1000, 10
	l := NewLoop()
	var handled atomic.Int64
	signal := make(chan struct{}, 1)
	note := func() {
		handled.Add(1)
		select {
		case signal <- struct{}{}:
		default:
		}
	}
	in := NewInbox(l, func(*int) { note() })
	sched := sim.Func(note)
	go l.Run()
	t.Cleanup(l.Stop)

	// arrived waits for item i to be handled: it spins for a while, so as
	// to hand the next one over within nanoseconds, then blocks, so that a
	// slow or single-CPU host still lets the loop run.
	deadline := time.Now().Add(5 * time.Second)
	arrived := func(i int64) bool {
		for spin := time.Now().Add(50 * time.Microsecond); handled.Load() <= i; {
			if time.Now().Before(spin) {
				continue
			}
			select {
			case <-signal:
			case <-time.After(time.Until(deadline)):
				return false
			}
		}
		return true
	}
	turn := make([]chan int64, producers) // carries the next item's index to whoever's turn it is
	for p := range turn {
		turn[p] = make(chan int64, 1)
	}
	stranded := make(chan string, 1)
	for p := 0; p < producers; p++ {
		go func() {
			one := 1
			for r := 0; r < each/run; r++ {
				i, ok := <-turn[p]
				if !ok {
					return
				}
				for end := i + run; i < end; i++ {
					how := [...]string{"Put", "Post", "Schedule"}[i%3]
					switch how {
					case "Put":
						in.Put(&one)
					case "Post":
						l.Post(note)
					case "Schedule":
						l.Schedule(l.Now(), sched, 0)
					}
					if !arrived(i) {
						stranded <- fmt.Sprintf("item %d of %d (%s) not handled within 5 s", i, producers*each, how)
						for _, c := range turn {
							close(c)
						}
						return
					}
				}
				turn[(p+1)%producers] <- i
			}
		}()
	}
	turn[0] <- 0
	for handled.Load() < producers*each && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	select {
	case s := <-stranded:
		t.Fatal(s)
	default:
	}
	if n := handled.Load(); n < producers*each {
		t.Fatalf("%d of %d items handled within 5 s", n, producers*each)
	}
	before := l.Turns()
	time.Sleep(20 * time.Millisecond)
	if n := l.Turns() - before; n > 2 {
		t.Fatalf("an idle loop turned %d times in 20 ms after %d wakes: its wake-up is never cleared", n, l.Wakes())
	}
}

// A datagram on a watched socket wakes a loop asleep on its hour-long
// timer, is read on the loop goroutine, and the loop sleeps again.
func TestWatchWakesSleepingLoop(t *testing.T) {
	l := NewLoop()
	handled := make(chan uint64, 1)
	ep := watchEndpoint(t, l, 8, func(m *wire.Msg) { handled <- uint64(m.Heartbeat.Sent) })
	go l.Run()
	t.Cleanup(l.Stop)
	for i := 1; i <= 3; i++ {
		time.Sleep(10 * time.Millisecond) // the loop has nothing to do and goes to sleep
		if err := ep.Write(wire.AppendHeartbeat(nil, market.Heartbeat{MP: 1, Sent: sim.Time(i)}), ep.LocalAddr().AddrPort()); err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-handled:
			if got != uint64(i) {
				t.Fatalf("datagram %d read as %d", i, got)
			}
		case <-time.After(time.Second):
			t.Fatalf("datagram %d did not wake the loop", i)
		}
	}
	if l.Polled() && l.Wakes() < 3 {
		t.Fatalf("%d wakes for three datagrams to a sleeping loop", l.Wakes())
	}
}

// A socket that is never empty keeps the loop from neither its timers nor
// its end-of-turn func: a turn drains one budget, then fires what is due.
// With ≥ 10 000 datagrams queued and a timer falling due at the first
// read, the timer fires in that turn, far from the socket's end, and the
// end-of-turn func runs at least once per budget read.
func TestSocketFloodDoesNotStarveTimers(t *testing.T) {
	const flood, budget = 10_000, 128
	l := NewLoop()
	var read, atFire, ends int // the loop goroutine's
	fired, empty := false, make(chan [2]int, 1)
	h := func(*wire.Msg) {
		if read++; read == 1 {
			l.At(l.Now(), func() { atFire, fired = read, true })
		}
	}
	ep, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	l.Watch(ep.RawConn(), func() bool {
		more := ep.Drain(h, budget)
		if !more && read > 0 && fired {
			select {
			case empty <- [2]int{read, ends}:
			default:
			}
		}
		return more
	})
	l.OnTurnEnd(func() { ends++ })
	hb := wire.AppendHeartbeat(nil, market.Heartbeat{MP: 1})
	for i := 0; i < flood; i++ {
		if err := ep.Write(hb, ep.LocalAddr().AddrPort()); err != nil {
			t.Fatal(err)
		}
	}
	go l.Run()
	t.Cleanup(l.Stop)
	var got [2]int
	select {
	case got = <-empty:
	case <-time.After(5 * time.Second):
		t.Fatal("the flood was not drained within 5 s")
	}
	n, turnEnds := got[0], got[1]
	t.Logf("%d of %d datagrams queued; the timer fired after %d; %d end-of-turn calls", n, flood, atFire, turnEnds)
	if n < 4*budget {
		t.Skipf("the socket held only %d datagrams", n)
	}
	if atFire > budget {
		t.Errorf("the timer due at the first read fired after %d reads, want at most one budget (%d)", atFire, budget)
	}
	if want := (n + budget - 1) / budget; turnEnds < want {
		t.Errorf("%d end-of-turn calls while %d datagrams were read, want at least %d", turnEnds, n, want)
	}
}
