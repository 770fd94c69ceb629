package rt

import (
	"os"
	"sync/atomic"
	"time"

	"dbo/internal/sim"
)

// coarse keeps newAlarm off the timerfd: the tests set it to run the
// fallback on Linux too.
var coarse atomic.Bool

// alarm wakes a sleeping Run at its next timer's deadline. On Linux it
// is a timerfd in the runtime's netpoller: the kernel's hrtimer makes the
// descriptor readable, epoll returns at once, and a reader goroutine
// parked there like a socket reader — no thread, no P — kicks the loop.
// A runtime timer is no substitute: an idle Go process sleeps in
// epoll_wait, whose timeout is whole milliseconds rounded up, so its
// timers fire up to a millisecond late (golang/go#44343). Without a
// timerfd the alarm is that runtime timer, and Loop.Precise says so.
type alarm struct {
	l     *Loop
	armed sim.Time      // the deadline it is set for; behind the clock once it has gone off
	f     *os.File      // the timerfd; nil on the fallback
	fd    int           // f's descriptor, kept for arm: f.Fd may put it in blocking mode
	gone  chan struct{} // closed when the reader has returned
	tm    *time.Timer   // the fallback
}

func newAlarm(l *Loop) *alarm {
	a := &alarm{l: l, armed: -1}
	if !coarse.Load() {
		a.f, a.fd = openTimerfd()
	}
	if a.f != nil {
		a.gone = make(chan struct{})
		go a.read()
	} else {
		a.tm = time.AfterFunc(time.Hour, l.kick)
	}
	l.precise.Store(a.f != nil)
	return a
}

// arm sets the alarm to go off at deadline, which is after now — unless
// it is already set for some moment between the two: going off early
// costs the loop one empty turn, setting it again a system call, and a
// loop that messages keep waking sleeps far more often than its deadline
// moves up.
func (a *alarm) arm(now, deadline sim.Time) {
	if now < a.armed && a.armed <= deadline {
		return
	}
	a.armed = deadline
	a.l.arms.Add(1)
	if wait := time.Duration(deadline - now); a.f != nil {
		setTimerfd(a.fd, wait)
	} else {
		a.tm.Reset(wait)
	}
}

// read turns each expiry into a kick. The descriptor is non-blocking,
// so Read parks in the netpoller until it is readable or closed.
func (a *alarm) read() {
	defer close(a.gone)
	var expiries [8]byte
	for {
		if _, err := a.f.Read(expiries[:]); err != nil {
			return
		}
		a.l.kick()
	}
}

// close releases the descriptor and returns once the reader has.
func (a *alarm) close() {
	if a.f == nil {
		a.tm.Stop()
		return
	}
	a.f.Close()
	<-a.gone
}
