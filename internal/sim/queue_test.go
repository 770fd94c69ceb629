package sim

import (
	"container/heap"
	"math/rand/v2"
	"testing"
)

// refEvent and refHeap are the reference order for the differential
// tests: a plain container/heap of pointers by (at, push order), sharing
// nothing with Queue.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// nop is the handler of every event the differential tests push; they
// compare what Pop returns and never fire it.
type nop struct{}

func (nop) Fire(int) {}

// diffQueues feeds Queue and the reference the same operation stream,
// one operation per byte, and requires identical pops throughout. The
// top two bits choose the operation — push (twice as likely as the
// rest), pop, or one of peek and drain-to-empty — and the low six the
// timestamp, so equal timestamps are the common case. Pushes land at or
// after the last popped time, as they do from inside a kernel handler.
func diffQueues(t testing.TB, ops []byte) {
	var q Queue
	var ref refHeap
	var seq uint64
	var now Time
	next := 0
	pop := func() {
		want := heap.Pop(&ref).(*refEvent)
		got := q.Pop()
		if got.At != want.at || got.Arg != want.id {
			t.Fatalf("pop: got event %d at %d, reference says %d at %d", got.Arg, got.At, want.id, want.at)
		}
		now = got.At
	}
	for _, b := range ops {
		arg := Time(b & 0x3f)
		switch b >> 6 {
		case 0, 1:
			seq++
			next++
			at := now + arg/4 // 16 distinct offsets: many ties
			heap.Push(&ref, &refEvent{at: at, seq: seq, id: next})
			q.Push(at, nop{}, next)
		case 2:
			if len(ref) > 0 {
				pop()
			}
		case 3:
			if arg < 48 {
				if len(ref) > 0 && q.MinAt() != ref[0].at {
					t.Fatalf("peek: got %d, reference says %d", q.MinAt(), ref[0].at)
				}
			} else {
				for len(ref) > 0 {
					pop()
				}
			}
		}
		if q.Len() != len(ref) {
			t.Fatalf("len: got %d, reference says %d", q.Len(), len(ref))
		}
	}
	for len(ref) > 0 {
		pop()
	}
	if q.Len() != 0 {
		t.Fatalf("queue holds %d events after the reference drained", q.Len())
	}
}

// queueSeeds are hand-written streams: all ties, a drain then regrowth,
// strict push/pop alternation, and a long fill.
func queueSeeds() [][]byte {
	fill := make([]byte, 300)
	for i := range fill {
		fill[i] = byte(i) & 0x7f
	}
	return [][]byte{
		{0, 0, 0, 0, 0, 0, 0, 0, 0x80, 0x80, 0, 0, 0x80},
		{1, 2, 3, 4, 5, 0xff, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0xff, 0x40},
		{0x3f, 0x80, 0x3f, 0x80, 0x00, 0x80, 0xc0, 0x80},
		fill,
	}
}

func TestQueueDifferential(t *testing.T) {
	t.Parallel()
	for _, s := range queueSeeds() {
		diffQueues(t, s)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for round := 0; round < 200; round++ {
		ops := make([]byte, 1+rng.IntN(2000))
		for i := range ops {
			ops[i] = byte(rng.Uint32())
		}
		diffQueues(t, ops)
	}
}

func FuzzEventQueue(f *testing.F) {
	for _, s := range queueSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { diffQueues(t, ops) })
}

// TestQueuePopDropsHandler: a popped entry's slot must not keep its
// handler (usually a closure) reachable from the backing array.
func TestQueuePopDropsHandler(t *testing.T) {
	t.Parallel()
	var q Queue
	for i := 0; i < 9; i++ {
		q.Push(Time(i), nop{}, i)
	}
	for q.Len() > 0 {
		q.Pop()
	}
	for i, e := range q.ev[:9] {
		if e.H != nil {
			t.Fatalf("slot %d still holds a handler after the queue drained", i)
		}
	}
}

// Slots leave the slab in any order and the most recently freed one is
// handed out next, so the slab never outgrows the peak number parked.
func TestSlabReusesFreedSlots(t *testing.T) {
	t.Parallel()
	var s Slab[string]
	a, b, c := s.Put("a"), s.Put("b"), s.Put("c")
	if got := s.Take(b); got != "b" {
		t.Fatalf("Take(%d) = %q, want b", b, got)
	}
	if got := s.Take(a); got != "a" {
		t.Fatalf("Take(%d) = %q, want a", a, got)
	}
	d, e := s.Put("d"), s.Put("e")
	if d != a || e != b {
		t.Fatalf("re-used slots %d, %d; want %d then %d (most recently freed first)", d, e, a, b)
	}
	for _, w := range []struct {
		i    int
		want string
	}{{c, "c"}, {d, "d"}, {e, "e"}} {
		if got := s.Take(w.i); got != w.want {
			t.Fatalf("Take(%d) = %q, want %q", w.i, got, w.want)
		}
	}
	if s.Cap() != 3 {
		t.Fatalf("slab grew to %d slots for a peak of 3 parked", s.Cap())
	}
}
