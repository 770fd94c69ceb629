// Package rt adapts the transport-agnostic DBO components (which expect
// a core.Scheduler) to wall-clock time: a single-goroutine event loop
// with a monotonic clock, whose timers sit in the simulator's event
// queue (sim.Queue) — one heap implementation orders both clocks, and
// timers due at the same instant fire in the order At was called.
//
// Every node of the live deployment (internal/node) owns one Loop. All
// component state is touched only from the loop goroutine; network
// receive goroutines hand messages in through an Inbox, and one-off
// calls (a metrics scrape, start-up) through Post. A node that gathers
// what a turn produced and sends it together registers one end-of-turn
// func (OnTurnEnd). Each Loop's clock
// starts at its own construction instant, so two nodes' clocks are
// genuinely unsynchronized — exactly the regime DBO is designed for.
//
// A sleeping loop is woken at its next deadline by an alarm (alarm.go):
// on Linux a timerfd, tens of microseconds late; elsewhere a runtime
// timer, up to a millisecond late on an idle process (Precise, OnLate).
package rt

import (
	"sync"
	"sync/atomic"
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
	boxes  []inbox        // every Inbox made for this loop, in NewInbox order
	end    func()         // OnTurnEnd's func, nil if none
	late   func(sim.Time) // OnLate's func, nil if none
	wake   chan struct{}
	done   chan struct{}
	once   sync.Once

	precise atomic.Bool  // Run's alarm is a timerfd
	arms    atomic.Int64 // times Run's alarm has been set
}

// NewLoop returns a loop whose clock starts now.
func NewLoop() *Loop {
	return &Loop{
		start: time.Now(),
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
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
// Safe from any goroutine; this is how network receivers inject messages.
func (l *Loop) Post(fn func()) {
	l.mu.Lock()
	l.msgs = append(l.msgs, fn)
	l.mu.Unlock()
	l.kick()
}

// OnTurnEnd registers the loop's one end-of-turn func; register it
// before Run, like an inbox. Run calls fn on the loop goroutine twice a
// turn: once the posted messages and inboxes are drained, and again
// once the due timers have fired — both produce work, and a timer-only
// turn (a maintenance tick) must not wait for the next message. It
// costs a nil check when none is registered and, unlike a self-armed
// zero-delay timer, no lock, heap push or wake per turn.
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

// Precise reports whether the running loop is woken for its timers by a
// timerfd and not by a runtime timer (alarm.go). False before Run.
func (l *Loop) Precise() bool { return l.precise.Load() }

// Arms counts the times Run has set its alarm: one system call each
// when Precise.
func (l *Loop) Arms() int64 { return l.arms.Load() }

func (l *Loop) kick() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// Stop terminates Run. Idempotent.
func (l *Loop) Stop() { l.once.Do(func() { close(l.done) }) }

// Done is closed by Stop: whoever waits for the loop to answer selects
// on it too, since a stopped loop runs nothing it is posted.
func (l *Loop) Done() <-chan struct{} { return l.done }

// Run dispatches messages and timers until Stop. It owns the calling
// goroutine.
func (l *Loop) Run() {
	al := newAlarm(l)
	defer al.close()
	// Posted messages, inbox contents and due timers are each swapped out
	// under the lock and run outside it. The buffers they are swapped
	// into belong to this goroutine and are re-used every iteration.
	var msgs []func()
	var due []sim.Event
	for {
		// Drain posted messages and inboxes first.
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
		if end != nil {
			end()
		}

		// Run due timers and find the next deadline.
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
		pending := len(l.msgs) > 0
		for _, b := range l.boxes {
			pending = pending || b.pending()
		}
		l.mu.Unlock()
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
		if len(due) > 0 || pending {
			continue // new work may have been created; re-evaluate
		}

		al.arm(now, next)
		select {
		case <-l.done:
			return
		case <-l.wake:
		}
	}
}
