package sim

// Handler is what a scheduled event dispatches to. A component that
// schedules many events implements it once and tells them apart by arg —
// typically the index of a slot where it parked the event's payload — so
// scheduling needs no per-event closure.
type Handler interface {
	Fire(arg int)
}

// Func adapts a plain callback to Handler; arg is ignored. Func values
// are pointer-shaped, so storing one in a Handler does not allocate.
type Func func()

// Fire calls f.
func (f Func) Fire(int) { f() }

// Event is one queue entry. Entries are values: the queue holds them in
// one flat slice and scheduling creates no per-event object.
type Event struct {
	At  Time
	seq uint64 // push order; breaks ties among equal At
	H   Handler
	Arg int
}

// Fire dispatches the event to its handler.
func (e Event) Fire() { e.H.Fire(e.Arg) }

// earlier is the queue's order: by time, then by push order. It takes
// the keys rather than the entries so the sifts can hold the key they
// compare against in registers.
func earlier(at Time, seq uint64, thanAt Time, thanSeq uint64) bool {
	return at < thanAt || (at == thanAt && seq < thanSeq)
}

// Queue is a min-priority queue of events ordered by (At, push order):
// events with equal timestamps pop in the order they were pushed. That
// tie-break is the determinism contract of everything scheduled through
// it. The zero value is an empty queue. Not safe for concurrent use.
//
// The layout is an implicit 4-ary heap: half the depth of a binary heap
// for the same length, and the four children of a node are adjacent in
// memory.
type Queue struct {
	ev  []Event
	seq uint64
}

// Len reports the number of queued events.
func (q *Queue) Len() int { return len(q.ev) }

// MinAt reports the timestamp of the event Pop would return. The queue
// must not be empty.
func (q *Queue) MinAt() Time { return q.ev[0].At }

// Push queues h.Fire(arg) for time at.
func (q *Queue) Push(at Time, h Handler, arg int) {
	q.seq++
	e := Event{At: at, seq: q.seq, H: h, Arg: arg}
	q.ev = append(q.ev, e)
	// Sift up: move parents down until e's place is found.
	i := len(q.ev) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !earlier(e.At, e.seq, q.ev[p].At, q.ev[p].seq) {
			break
		}
		q.ev[i] = q.ev[p]
		i = p
	}
	q.ev[i] = e
}

// Pop removes and returns the earliest event. The queue must not be
// empty.
func (q *Queue) Pop() Event {
	top := q.ev[0]
	n := len(q.ev) - 1
	e := q.ev[n]
	q.ev[n] = Event{} // drop the handler reference
	q.ev = q.ev[:n]
	if n == 0 {
		return top
	}
	// Sift down: move the smallest child up until e's place is found.
	ev := q.ev
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		mAt, mSeq := ev[c].At, ev[c].seq
		end := min(c+4, n)
		for j := c + 1; j < end; j++ {
			if at, seq := ev[j].At, ev[j].seq; earlier(at, seq, mAt, mSeq) {
				m, mAt, mSeq = j, at, seq
			}
		}
		if earlier(e.At, e.seq, mAt, mSeq) {
			break
		}
		ev[i] = ev[m]
		i = m
	}
	ev[i] = e
	return top
}

// Slab parks the payloads of events in flight. A Handler puts a payload
// in, schedules an event whose Arg is the index Put returned, and takes
// the payload out when the event fires. Slots leave in any order (which
// is why it is not a ring) and are re-used most-recently-freed first;
// the slab grows only while more payloads are parked than ever before.
// The zero value is an empty slab.
type Slab[T any] struct {
	slots []slabSlot[T]
	free  int // head of the free chain as index+1; 0 = none
}

// slabSlot holds a parked payload or, while free, the next free slot
// (as index+1).
type slabSlot[T any] struct {
	v    T
	next int
}

// Put parks v and returns its slot index.
func (s *Slab[T]) Put(v T) int {
	if i := s.free - 1; i >= 0 {
		s.free = s.slots[i].next
		s.slots[i] = slabSlot[T]{v: v}
		return i
	}
	s.slots = append(s.slots, slabSlot[T]{v: v})
	return len(s.slots) - 1
}

// Take frees slot i and returns what was parked there. The slot is free
// before Take returns, so a handler may Put again — and be handed the
// same slot — while still working on the payload it took.
func (s *Slab[T]) Take(i int) T {
	v := s.slots[i].v
	s.slots[i] = slabSlot[T]{next: s.free}
	s.free = i + 1
	return v
}

// Cap reports how many slots the slab has grown to.
func (s *Slab[T]) Cap() int { return len(s.slots) }
