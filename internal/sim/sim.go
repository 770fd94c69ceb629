// Package sim provides a deterministic discrete-event simulation kernel
// with virtual nanosecond time.
//
// The DBO paper evaluates mechanisms whose interesting behaviour happens
// at single-microsecond granularity (δ = τ = 20µs, response times of
// 5–20µs). Reproducing those timings on wall-clock time in Go is hostage
// to GC pauses and scheduler jitter, so all tables and figures in this
// repository are produced on virtual time: events execute in strict
// timestamp order, ties broken by scheduling sequence, and every run is
// reproducible from its seed.
//
// Scheduling is built on Queue, a flat heap of value-typed events
// ordered by (time, push order). An event names a Handler and an
// integer argument, so a component with many events in flight (a link's
// messages, a participant's response timers) is its own handler and
// parks each payload in a Slab slot the argument indexes; the plain
// func() forms At, After and Every store the func itself as the handler.
// Either way an event costs no heap object. The wall-clock loop
// (internal/rt) orders its timers with the same Queue.
package sim

import (
	"fmt"
	"math/rand/v2"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It is deliberately not time.Time: virtual time has no wall
// anchor and must stay cheap to compare and add.
type Time int64

// Common durations in virtual time.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Duration converts a virtual timestamp (or difference of timestamps)
// into a time.Duration for reporting.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Micros reports t in (fractional) microseconds, the paper's reporting unit.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String formats the time as microseconds with nanosecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fµs", t.Micros()) }

// FromDuration converts a time.Duration into virtual time.
func FromDuration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Kernel is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; all model code runs inside event callbacks on the
// kernel's goroutine.
type Kernel struct {
	now     Time
	queue   Queue
	stopped bool
	rng     *rand.Rand
}

// NewKernel returns a kernel whose random source is seeded
// deterministically from seed.
func NewKernel(seed uint64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// Now reports current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source. Model components
// should derive their own sources via SubRand for isolation.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// SubRand derives an independent deterministic random source labelled by
// id, so adding a component does not perturb the random streams of others.
//
// The stream depends on id alone, not on the kernel's seed: two kernels
// with different seeds hand out identical SubRand(id) streams. Whatever
// a model draws from one (the simulated participants' trade decisions
// and response times, for instance) is therefore the same in every run,
// and only what is drawn from Rand or seeded from the run's own seed
// varies with it.
func (k *Kernel) SubRand(id uint64) *rand.Rand {
	return rand.New(rand.NewPCG(id^0xd1342543de82ef95, id*0x2545f4914f6cdd1d+1))
}

// Schedule queues h.Fire(arg) for absolute virtual time at. Scheduling
// in the past (before Now) panics: that is always a model bug. It is the
// one way onto the queue — At, After and Every wrap it — so every call
// is exactly one event, ordered among equal timestamps by call order.
func (k *Kernel) Schedule(at Time, h Handler, arg int) {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, k.now))
	}
	k.queue.Push(at, h, arg)
}

// At schedules fn to run at absolute virtual time at. A fn that is
// created once and rescheduled costs nothing per event; a hot path that
// would build a fresh closure per event should implement Handler and
// call Schedule instead.
func (k *Kernel) At(at Time, fn func()) { k.Schedule(at, Func(fn), 0) }

// After schedules fn to run d after the current time.
func (k *Kernel) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	k.At(k.now+d, fn)
}

// Every schedules fn at start and then every period until the kernel
// stops or until fn returns false.
func (k *Kernel) Every(start, period Time, fn func() bool) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v", period))
	}
	var tick func()
	next := start
	tick = func() {
		if !fn() {
			return
		}
		next += period
		k.At(next, tick)
	}
	k.At(start, tick)
}

// Stop halts the run loop after the currently executing event returns.
func (k *Kernel) Stop() { k.stopped = true }

// step pops the earliest event, advances the clock to it and runs it.
func (k *Kernel) step() {
	e := k.queue.Pop()
	k.now = e.At
	e.Fire()
}

// Run executes events until the queue is empty or Stop is called.
// It returns the final virtual time.
func (k *Kernel) Run() Time {
	k.stopped = false
	for k.queue.Len() > 0 && !k.stopped {
		k.step()
	}
	return k.now
}

// RunUntil executes events with timestamps ≤ deadline, then advances the
// clock to the deadline. Events scheduled beyond the deadline remain queued.
func (k *Kernel) RunUntil(deadline Time) Time {
	k.stopped = false
	for k.queue.Len() > 0 && !k.stopped && k.queue.MinAt() <= deadline {
		k.step()
	}
	if k.now < deadline {
		k.now = deadline
	}
	return k.now
}

// Pending reports the number of queued events.
func (k *Kernel) Pending() int { return k.queue.Len() }
