package sim

import (
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeConversions(t *testing.T) {
	t.Parallel()
	if got := (1500 * Nanosecond).Micros(); got != 1.5 {
		t.Errorf("Micros() = %v, want 1.5", got)
	}
	if got := FromDuration(3 * time.Microsecond); got != 3*Microsecond {
		t.Errorf("FromDuration = %v, want 3µs", got)
	}
	if got := (2 * Millisecond).Duration(); got != 2*time.Millisecond {
		t.Errorf("Duration = %v, want 2ms", got)
	}
	if got := Time(1500).String(); got != "1.500µs" {
		t.Errorf("String = %q", got)
	}
}

func TestEventsRunInTimestampOrder(t *testing.T) {
	t.Parallel()
	k := NewKernel(1)
	var order []int
	k.At(30, func() { order = append(order, 3) })
	k.At(10, func() { order = append(order, 1) })
	k.At(20, func() { order = append(order, 2) })
	end := k.Run()
	if end != 30 {
		t.Fatalf("final time = %v, want 30", end)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEqualTimestampsFIFO(t *testing.T) {
	t.Parallel()
	k := NewKernel(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, func() { order = append(order, i) })
	}
	k.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("ties not FIFO: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	t.Parallel()
	k := NewKernel(1)
	var at Time
	k.At(100, func() {
		k.After(50, func() { at = k.Now() })
	})
	k.Run()
	if at != 150 {
		t.Fatalf("After fired at %v, want 150", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	t.Parallel()
	k := NewKernel(1)
	k.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		k.At(50, func() {})
	})
	k.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	t.Parallel()
	k := NewKernel(1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative delay")
		}
	}()
	k.After(-1, func() {})
}

func TestEveryRepeatsUntilFalse(t *testing.T) {
	t.Parallel()
	k := NewKernel(1)
	var times []Time
	k.Every(10, 5, func() bool {
		times = append(times, k.Now())
		return len(times) < 4
	})
	k.Run()
	want := []Time{10, 15, 20, 25}
	if len(times) != len(want) {
		t.Fatalf("fired %d times, want %d", len(times), len(want))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestEveryInvalidPeriodPanics(t *testing.T) {
	t.Parallel()
	k := NewKernel(1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for period 0")
		}
	}()
	k.Every(0, 0, func() bool { return true })
}

func TestStopHaltsRun(t *testing.T) {
	t.Parallel()
	k := NewKernel(1)
	ran := 0
	k.At(1, func() { ran++; k.Stop() })
	k.At(2, func() { ran++ })
	k.Run()
	if ran != 1 {
		t.Fatalf("ran %d events, want 1 (Stop should halt)", ran)
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", k.Pending())
	}
}

func TestRunUntilLeavesLaterEventsQueued(t *testing.T) {
	t.Parallel()
	k := NewKernel(1)
	var fired []Time
	k.At(10, func() { fired = append(fired, 10) })
	k.At(20, func() { fired = append(fired, 20) })
	k.At(30, func() { fired = append(fired, 30) })
	end := k.RunUntil(20)
	if end != 20 {
		t.Fatalf("RunUntil = %v, want 20", end)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10 and 20 only", fired)
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", k.Pending())
	}
	// A second call that stops short of the next event leaves it queued
	// and still advances the clock.
	if end := k.RunUntil(25); end != 25 || len(fired) != 2 || k.Pending() != 1 {
		t.Fatalf("RunUntil(25) = %v with %v fired and %d pending; the event at 30 must stay queued", end, fired, k.Pending())
	}
	// Resuming runs the rest.
	k.Run()
	if len(fired) != 3 {
		t.Fatalf("after resume fired %v", fired)
	}
}

// An event scheduled for the current instant from inside a handler goes
// behind the events already queued for that instant: ties pop in
// scheduling order, whenever the scheduling happened.
func TestScheduleForNowFromHandlerRunsAfterQueuedTies(t *testing.T) {
	t.Parallel()
	k := NewKernel(1)
	var order []string
	k.At(5, func() {
		order = append(order, "a")
		k.At(k.Now(), func() { order = append(order, "late") })
		k.After(0, func() { order = append(order, "later") })
	})
	k.At(5, func() { order = append(order, "b") })
	k.At(5, func() { order = append(order, "c") })
	k.Run()
	want := []string{"a", "b", "c", "late", "later"}
	if !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// recorder is a Handler that tells its events apart by arg.
type recorder struct{ args []int }

func (r *recorder) Fire(arg int) { r.args = append(r.args, arg) }

func TestScheduleDispatchesArgToHandler(t *testing.T) {
	t.Parallel()
	k := NewKernel(1)
	var r recorder
	k.Schedule(20, &r, 2)
	k.Schedule(10, &r, 1)
	k.Schedule(20, &r, 3)
	k.At(20, func() { r.Fire(4) }) // At is Schedule with a Func handler: same queue, same tie-break
	k.Run()
	if want := []int{1, 2, 3, 4}; !slices.Equal(r.args, want) {
		t.Fatalf("dispatched %v, want %v", r.args, want)
	}
}

// Scheduling and dispatching an event allocates nothing when the
// callback is not a fresh closure: entries are values in the queue's
// backing array and a func value fits an interface word.
func TestKernelEventZeroAlloc(t *testing.T) {
	k := NewKernel(1)
	n := 0
	fn := func() { n++ }
	var r recorder
	r.args = make([]int, 0, 4096)
	for i := 0; i < 64; i++ { // grow the queue to its working size
		k.After(Time(i), fn)
	}
	k.Run()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 16; i++ {
			k.After(Time(i%4), fn)
			k.Schedule(k.Now()+Time(i%4), &r, i)
		}
		k.Run()
		r.args = r.args[:0]
	})
	if allocs != 0 {
		t.Fatalf("schedule + dispatch allocates %v objects per 32 events, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("callback never ran")
	}
}

func TestRunUntilAdvancesClockToDeadline(t *testing.T) {
	t.Parallel()
	k := NewKernel(1)
	k.RunUntil(500)
	if k.Now() != 500 {
		t.Fatalf("Now = %v, want 500", k.Now())
	}
}

func TestDeterministicRand(t *testing.T) {
	t.Parallel()
	a := NewKernel(42).Rand().Uint64()
	b := NewKernel(42).Rand().Uint64()
	if a != b {
		t.Fatal("same seed must yield same random stream")
	}
	c := NewKernel(43).Rand().Uint64()
	if a == c {
		t.Fatal("different seeds should differ (overwhelmingly)")
	}
}

func TestSubRandIndependentOfKernelSeed(t *testing.T) {
	t.Parallel()
	a := NewKernel(1).SubRand(7).Uint64()
	b := NewKernel(2).SubRand(7).Uint64()
	if a != b {
		t.Fatal("SubRand must depend only on its id")
	}
}

// Property: for any set of (time, id) events, execution order sorts by
// time with FIFO tie-break.
func TestPropertyExecutionOrderSorted(t *testing.T) {
	t.Parallel()
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		k := NewKernel(7)
		var ts []Time
		for _, d := range delays {
			k.At(Time(d), func() { ts = append(ts, k.Now()) })
		}
		k.Run()
		for i := 1; i < len(ts); i++ {
			if ts[i] < ts[i-1] {
				return false
			}
		}
		return len(ts) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: nested scheduling never observes time going backwards.
func TestPropertyMonotonicNow(t *testing.T) {
	t.Parallel()
	f := func(seed uint64, n uint8) bool {
		k := NewKernel(seed)
		last := Time(-1)
		ok := true
		count := int(n%50) + 1
		var spawn func(depth int)
		spawn = func(depth int) {
			if k.Now() < last {
				ok = false
			}
			last = k.Now()
			if depth < 3 {
				k.After(Time(k.Rand().Int64N(100)), func() { spawn(depth + 1) })
			}
		}
		for i := 0; i < count; i++ {
			k.At(Time(k.Rand().Int64N(1000)), func() { spawn(0) })
		}
		k.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkKernelScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := NewKernel(1)
		for j := 0; j < 1000; j++ {
			k.At(Time(j), func() {})
		}
		k.Run()
	}
}
