// Package rt adapts the transport-agnostic DBO components (which expect
// a core.Scheduler) to wall-clock time: a single-goroutine event loop
// with a monotonic clock, whose timers sit in the simulator's event
// queue (sim.Queue) — one heap implementation orders both clocks, and
// timers due at the same instant fire in the order At was called.
//
// Every node of the live deployment (internal/node) owns one Loop. All
// component state is touched only from the loop goroutine, which reads
// the node's UDP socket itself (Watch); other goroutines — a TCP
// connection's reader, a metrics scrape, start-up — hand work in through
// an Inbox or Post. A node that gathers what a turn produced and sends it
// together registers one end-of-turn func (OnTurnEnd). Each Loop's clock
// starts at its own construction instant, so two nodes' clocks are
// genuinely unsynchronized — exactly the regime DBO is designed for.
//
// A loop with nothing to do sleeps on one descriptor (poll_linux.go): an
// epoll set in the runtime's netpoller that its sockets, its alarm (a
// timerfd, tens of microseconds late) and the other goroutines' wake-ups
// all make readable. Elsewhere than Linux it sleeps on a channel, its
// alarm is a runtime timer, up to a millisecond late on an idle process,
// and its sockets need reader goroutines (Polled, Precise, OnLate).
package rt

import (
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

	mu      sync.Mutex
	timers  sim.Queue // the kernel's queue: (at, push order), so equal deadlines fire in At order
	msgs    []func()
	boxes   []inbox        // every Inbox made for this loop, in NewInbox order
	watches []watch        // every socket Watch registered, in Watch order
	end     func()         // OnTurnEnd's func, nil if none
	late    func(sim.Time) // OnLate's func, nil if none
	done    chan struct{}
	once    sync.Once

	// How Run sleeps. sleeping is set before Run's last look for work;
	// set is Run's, written before sleeping is first set.
	polled   bool
	sleeping atomic.Bool
	set      *epollSet     // nil on the fallback, which has wake and tm
	wake     chan struct{} // the fallback's wake-up
	tm       *time.Timer   // the fallback's alarm
	armed    sim.Time      // the alarm's deadline; behind the clock once it has gone off

	precise            atomic.Bool  // Run's alarm is a timerfd
	arms, wakes, turns atomic.Int64 // times Run has set its alarm, been woken from a sleep, begun a turn
}

// coarse keeps NewLoop off the epoll set: the tests set it to run the
// fallback on Linux too.
var coarse atomic.Bool

// watch is a socket Run reads on the loop goroutine (Loop.Watch).
type watch struct {
	rc    syscall.RawConn
	drain func() (more bool)
	ready bool // readable, or its last drain stopped at its budget; loop goroutine only
}

// NewLoop returns a loop whose clock starts now. It opens no descriptor:
// Run does.
func NewLoop() *Loop {
	return &Loop{
		start:  time.Now(),
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
		polled: !coarse.Load() && pollable(),
	}
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
// read — then the next turn follows at once. Register before Run, and on
// a Polled loop: elsewhere a watched socket is read every turn and every
// millisecond, and a reader goroutine feeding an Inbox serves it better.
func (l *Loop) Watch(rc syscall.RawConn, drain func() (more bool)) {
	l.mu.Lock()
	l.watches = append(l.watches, watch{rc: rc, drain: drain})
	l.mu.Unlock()
}

// OnTurnEnd registers the loop's one end-of-turn func; register it
// before Run, like an inbox. Run calls fn on the loop goroutine twice a
// turn: once the posted messages, inboxes and sockets are drained, and
// again once the due timers have fired — both produce work, and a
// timer-only turn (a maintenance tick) must not wait for the next
// message. It costs a nil check when none is registered and, unlike a
// self-armed zero-delay timer, no lock, heap push or wake per turn.
func (l *Loop) OnTurnEnd(fn func()) {
	l.mu.Lock()
	l.end = fn
	l.mu.Unlock()
}

// OnLate registers the loop's one lateness observer; register it before
// Run. Run calls fn on the loop goroutine just before each due timer
// fires, with how far past its deadline the turn that fires it began.
func (l *Loop) OnLate(fn func(late sim.Time)) {
	l.mu.Lock()
	l.late = fn
	l.mu.Unlock()
}

// Polled reports whether Run will sleep on an epoll set that watched
// sockets make readable: false elsewhere than Linux, or where the kernel
// refuses the set.
func (l *Loop) Polled() bool { return l.polled }

// Precise reports whether the running loop is woken for its timers by a
// timerfd and not by a runtime timer. False before Run.
func (l *Loop) Precise() bool { return l.precise.Load() }

// Arms counts the times Run has set its alarm: one system call each
// when Precise.
func (l *Loop) Arms() int64 { return l.arms.Load() }

// Wakes counts the times Run has slept for want of work and been woken.
func (l *Loop) Wakes() int64 { return l.wakes.Load() }

// Turns counts the turns Run has begun.
func (l *Loop) Turns() int64 { return l.turns.Load() }

// kick wakes a sleeping loop. Whoever adds work after the loop's last
// look finds sleeping set; the first to clear it writes the one wake-up
// (DESIGN §8.10). From the awake loop goroutine it is one load.
func (l *Loop) kick() {
	if !l.sleeping.Load() || !l.sleeping.CompareAndSwap(true, false) {
		return
	}
	if l.set != nil {
		l.set.kick()
		return
	}
	select {
	case l.wake <- struct{}{}:
	default:
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
		return false
	}
}

// Run dispatches messages, sockets and timers until Stop. It owns the
// calling goroutine.
func (l *Loop) Run() {
	l.mu.Lock()
	ws := l.watches
	l.mu.Unlock()
	l.open(ws)
	defer l.close()
	// Posted messages, inbox contents and due timers are each swapped out
	// under the lock and run outside it. The buffers they are swapped
	// into belong to this goroutine and are re-used every iteration.
	var msgs []func()
	var due []sim.Event
	for !l.stopped() {
		l.turns.Add(1)
		// Drain posted messages, inboxes and readable sockets first.
		l.mu.Lock()
		msgs, l.msgs = l.msgs, msgs[:0]
		boxes, end, late := l.boxes, l.end, l.late
		for _, b := range boxes {
			b.swap()
		}
		l.mu.Unlock()
		for i, fn := range msgs {
			fn()
			msgs[i] = nil
		}
		for _, b := range boxes {
			b.drain()
		}
		more := false // a socket stopped at its budget
		for i := range ws {
			if ws[i].ready {
				ws[i].ready = ws[i].drain()
				more = more || ws[i].ready
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
		for _, b := range l.boxes {
			idle = idle && !b.pending()
		}
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
			l.arm(now, next, len(ws) > 0)
		}
		if l.stopped() {
			return
		}
		l.wait(idle, ws)
		if idle {
			l.wakes.Add(1)
			l.sleeping.Store(false)
		}
	}
}

// open gives Run what it sleeps on: the epoll set, or on the fallback a
// runtime timer for the alarm and the channel wake for the kicks.
func (l *Loop) open(ws []watch) {
	if l.polled {
		l.set = openEpoll(ws)
	}
	if l.set == nil {
		l.tm = time.AfterFunc(time.Hour, l.kick)
	}
	l.precise.Store(l.set != nil)
	l.armed = -1
}

func (l *Loop) close() {
	l.sleeping.Store(false)
	if l.set != nil {
		l.set.close()
	} else {
		l.tm.Stop()
	}
}

// arm sets the alarm to go off at deadline, which is after now — unless
// it is already set for some moment between the two: going off early
// costs the loop one empty turn, setting it again a system call, and a
// loop that messages keep waking sleeps far more often than its deadline
// moves up. On the fallback nothing says a watched socket is readable,
// so the alarm goes off at least once a millisecond.
func (l *Loop) arm(now, deadline sim.Time, watching bool) {
	if l.set == nil && watching {
		deadline = min(deadline, now+sim.FromDuration(time.Millisecond))
	}
	if now < l.armed && l.armed <= deadline {
		return
	}
	l.armed = deadline
	l.arms.Add(1)
	if wait := time.Duration(deadline - now); l.set != nil {
		l.set.setAlarm(wait)
	} else {
		l.tm.Reset(wait)
	}
}

// wait returns once the loop is woken if block, at once otherwise, and
// marks the watched sockets that are readable.
func (l *Loop) wait(block bool, ws []watch) {
	if l.set != nil {
		l.set.wait(block, ws)
		return
	}
	if block {
		select {
		case <-l.done:
		case <-l.wake:
		}
	}
	for i := range ws {
		ws[i].ready = true
	}
}
