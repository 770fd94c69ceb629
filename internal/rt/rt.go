// Package rt adapts the transport-agnostic DBO components (which expect
// a core.Scheduler) to wall-clock time: a single-goroutine event loop
// with a monotonic clock, whose timers sit in the simulator's event
// queue (sim.Queue) — one heap implementation orders both clocks, and
// timers due at the same instant fire in the order At was called.
//
// Every node of the live deployment (internal/node) owns one Loop. All
// component state is touched only from the loop goroutine, which reads
// the node's sockets itself (Watch): its UDP socket, its TCP listener and
// every connection accepted from it. Other goroutines — a metrics scrape,
// start-up — hand work in through Post. A node that gathers what a turn
// produced and sends it together registers one end-of-turn func
// (OnTurnEnd). Each Loop's clock starts at its own construction instant,
// so two nodes' clocks are genuinely unsynchronized — exactly the regime
// DBO is designed for.
//
// A loop with nothing to do sleeps on one descriptor (poll_linux.go): an
// epoll set in the runtime's netpoller that its sockets, its alarm (a
// timerfd, tens of microseconds late) and the other goroutines' wake-ups
// all make readable. Elsewhere than Linux, or where the kernel refuses
// the set, there is no loop: Supported reports false and Run fails.
package rt

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dbo/internal/sim"
)

// Loop is a wall-clock scheduler satisfying core.Scheduler. Run it with
// Run (usually in its own goroutine) and stop it with Stop.
type Loop struct {
	start time.Time

	mu     sync.Mutex
	timers sim.Queue // the kernel's queue: (at, push order), so equal deadlines fire in At order
	msgs   []func()
	done   chan struct{}
	once   sync.Once

	// Written before Run or on the loop goroutine only. watches is every
	// socket Watch registered, indexed by the token the epoll set reports
	// it under; Unwatch leaves a zero slot that the next Watch reuses.
	watches []watch
	end     func()         // OnTurnEnd's func, nil if none
	late    func(sim.Time) // OnLate's func, nil if none

	// How Run sleeps. sleeping is set before Run's last look for work;
	// set is Run's, written before sleeping is first set.
	sleeping atomic.Bool
	set      *epollSet
	armed    sim.Time // the alarm's deadline; behind the clock once it has gone off

	arms, wakes, turns atomic.Int64 // times Run has set its alarm, been woken from a sleep, begun a turn
}

// watch is a socket Run reads on the loop goroutine (Loop.Watch).
type watch struct {
	rc    syscall.RawConn // nil in a free slot
	drain func() (more bool)
	ready bool // readable, or its last drain stopped at its budget
}

// Supported reports, once per process, whether the kernel gives the
// epoll set a Loop sleeps on: never elsewhere than Linux.
var Supported = sync.OnceValue(func() bool {
	s := openEpoll(nil)
	if s != nil {
		s.close()
	}
	return s != nil
})

// NewLoop returns a loop whose clock starts now. It opens no descriptor:
// Run does.
func NewLoop() *Loop {
	return &Loop{start: time.Now(), done: make(chan struct{})}
}

// Now returns the loop's monotonic local time.
func (l *Loop) Now() sim.Time { return sim.Time(time.Since(l.start)) }

// Schedule queues h.Fire(arg) on the loop at local time t (clamped to
// now if in the past — wall clocks move while callers compute — so a
// timer's lateness is counted from when it could first have fired). A
// component that is the Handler of its own timers schedules without a
// closure. Safe from any goroutine.
func (l *Loop) Schedule(t sim.Time, h sim.Handler, arg int) {
	l.mu.Lock()
	l.timers.Push(max(t, l.Now()), h, arg)
	l.mu.Unlock()
	l.kick()
}

// At schedules fn on the loop at local time t; it is Schedule with the
// func stored as the handler.
func (l *Loop) At(t sim.Time, fn func()) { l.Schedule(t, sim.Func(fn), 0) }

// Post enqueues fn to run on the loop goroutine as soon as possible.
// Safe from any goroutine.
func (l *Loop) Post(fn func()) {
	l.mu.Lock()
	l.msgs = append(l.msgs, fn)
	l.mu.Unlock()
	l.kick()
}

// Watch has Run read a socket on the loop goroutine: each turn in which
// rc's socket is readable calls drain, which reads without blocking, up
// to a budget of its own, and reports whether it stopped with more to
// read — then the next turn follows at once. Call it before Run or on
// the loop goroutine; it fails only if the running loop's set refuses rc.
func (l *Loop) Watch(rc syscall.RawConn, drain func() (more bool)) error {
	i := slices.IndexFunc(l.watches, func(w watch) bool { return w.rc == nil })
	if i < 0 {
		i, l.watches = len(l.watches), append(l.watches, watch{})
	}
	if l.set != nil {
		if err := l.set.watch(rc, i); err != nil {
			return err
		}
	}
	l.watches[i] = watch{rc: rc, drain: drain}
	return nil
}

// Unwatch stops reading rc's socket. Call it on the loop goroutine,
// before the socket is closed; a drain that unwatches its own socket
// reports no more.
func (l *Loop) Unwatch(rc syscall.RawConn) {
	if i := slices.IndexFunc(l.watches, func(w watch) bool { return w.rc == rc }); i >= 0 {
		l.set.unwatch(rc)
		l.watches[i] = watch{}
	}
}

// OnTurnEnd registers the loop's one end-of-turn func; register it
// before Run. Run calls fn on the loop goroutine twice a turn: once the
// posted messages and the sockets are drained, and again once the due
// timers have fired — both produce work, and a timer-only turn (a
// maintenance tick) must not wait for the next message. It costs a nil
// check when none is registered and, unlike a self-armed zero-delay
// timer, no lock, heap push or wake per turn.
func (l *Loop) OnTurnEnd(fn func()) { l.end = fn }

// OnLate registers the loop's one lateness observer; register it before
// Run. Run calls fn on the loop goroutine just before each due timer
// fires, with how far past its deadline the turn that fires it began.
func (l *Loop) OnLate(fn func(late sim.Time)) { l.late = fn }

// Arms counts the times Run has set its alarm, one system call each.
func (l *Loop) Arms() int64 { return l.arms.Load() }

// Wakes counts the times Run has slept for want of work and been woken.
func (l *Loop) Wakes() int64 { return l.wakes.Load() }

// Turns counts the turns Run has begun.
func (l *Loop) Turns() int64 { return l.turns.Load() }

// kick wakes a sleeping loop. Whoever adds work after the loop's last
// look finds sleeping set; the first to clear it writes the one wake-up
// (DESIGN §8.10). From the awake loop goroutine it is one load.
func (l *Loop) kick() {
	if l.sleeping.Load() && l.sleeping.CompareAndSwap(true, false) {
		l.set.kick()
	}
}

// Stop terminates Run. Idempotent.
func (l *Loop) Stop() {
	l.once.Do(func() { close(l.done) })
	l.kick()
}

// Done is closed by Stop: whoever waits for the loop to answer selects
// on it too, since a stopped loop runs nothing it is posted.
func (l *Loop) Done() <-chan struct{} { return l.done }

func (l *Loop) stopped() bool {
	select {
	case <-l.done:
		return true
	default:
	}
	return false
}

// Run dispatches messages, sockets and timers until Stop. It owns the
// calling goroutine. If the kernel refuses the epoll set it sleeps on —
// always where Supported is false, and where descriptors run out — Run
// stops the loop and returns an error wrapping errors.ErrUnsupported.
func (l *Loop) Run() error {
	if l.set = openEpoll(l.watches); l.set == nil {
		l.Stop()
		return fmt.Errorf("rt: the kernel refused the loop's epoll set: %w", errors.ErrUnsupported)
	}
	l.armed = -1
	defer l.close()
	// Posted messages and due timers are each swapped out under the lock
	// and run outside it. The buffers they are swapped into belong to
	// this goroutine and are re-used every iteration.
	var msgs []func()
	var due []sim.Event
	end, late := l.end, l.late
	for !l.stopped() {
		l.turns.Add(1)
		// Drain posted messages and readable sockets first. A drain may
		// Watch or Unwatch, so the table is indexed afresh each time.
		l.mu.Lock()
		msgs, l.msgs = l.msgs, msgs[:0]
		l.mu.Unlock()
		for i, fn := range msgs {
			fn()
			msgs[i] = nil
		}
		more := false // a socket stopped at its budget
		for i := 0; i < len(l.watches); i++ {
			if l.watches[i].ready {
				r := l.watches[i].drain()
				l.watches[i].ready = r
				more = more || r
			}
		}
		if end != nil {
			end()
		}

		// Run due timers and find the next deadline. Unless a socket has
		// more, the loop counts as asleep from before this look for work:
		// whoever adds work after it wakes the loop.
		l.sleeping.Store(!more)
		now := l.Now()
		due = due[:0]
		l.mu.Lock()
		for l.timers.Len() > 0 && l.timers.MinAt() <= now {
			due = append(due, l.timers.Pop())
		}
		next := now + sim.Time(time.Hour)
		if l.timers.Len() > 0 {
			next = l.timers.MinAt()
		}
		idle := !more && len(due) == 0 && len(l.msgs) == 0
		l.mu.Unlock()
		if !idle {
			l.sleeping.Store(false)
		}
		for i := range due {
			if late != nil {
				late(now - due[i].At)
			}
			due[i].Fire()
			due[i] = sim.Event{}
		}
		if len(due) > 0 && end != nil {
			end()
		}

		// Sleep if idle (a Stop after the look above finds the loop
		// asleep and wakes it); either way, find the readable sockets.
		if idle {
			l.arm(now, next)
		}
		if l.stopped() {
			return nil
		}
		l.set.wait(idle, l.watches)
		if idle {
			l.wakes.Add(1)
			l.sleeping.Store(false)
		}
	}
	return nil
}

func (l *Loop) close() {
	l.sleeping.Store(false)
	l.set.close()
}

// arm sets the alarm to go off at deadline, which is after now — unless
// it is already set for some moment between the two: going off early
// costs the loop one empty turn, setting it again a system call, and a
// loop that messages keep waking sleeps far more often than its deadline
// moves up.
func (l *Loop) arm(now, deadline sim.Time) {
	if now < l.armed && l.armed <= deadline {
		return
	}
	l.armed = deadline
	l.arms.Add(1)
	l.set.setAlarm(time.Duration(deadline - now))
}
