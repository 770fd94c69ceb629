package rt

// Inbox carries values of one type from any goroutine onto the loop
// without a closure or an interface box per value: Put copies *v into a
// slice under the loop's lock, and Run swaps that slice out and calls
// the inbox's handler on each element, in Put order, where it runs
// Posted functions. A node has one inbox shared by all its reader
// goroutines, so messages reach the loop in the order their Puts took
// the lock, whichever socket they came from.
type Inbox[T any] struct {
	l  *Loop
	fn func(*T)
	in []T // filled by Put; guarded by l.mu
	// out is what Run is draining; only the loop goroutine touches it
	// between swap and the end of drain.
	out []T
}

// inbox is what Run needs of an Inbox[T], whatever T is.
type inbox interface {
	swap()         // under l.mu: take what Put has filled
	drain()        // outside the lock, on the loop goroutine
	pending() bool // under l.mu: has Put filled anything since swap
}

// NewInbox returns an inbox whose values are handed to fn on l's
// goroutine. The *T is valid for that call only: the slot is re-used.
func NewInbox[T any](l *Loop, fn func(*T)) *Inbox[T] {
	b := &Inbox[T]{l: l, fn: fn}
	l.mu.Lock()
	l.boxes = append(l.boxes, b)
	l.mu.Unlock()
	return b
}

// Put copies *v into the inbox; the caller keeps v. Safe from any
// goroutine.
func (b *Inbox[T]) Put(v *T) {
	b.l.mu.Lock()
	b.in = append(b.in, *v)
	b.l.mu.Unlock()
	b.l.kick()
}

func (b *Inbox[T]) swap() { b.in, b.out = b.out[:0], b.in }

func (b *Inbox[T]) pending() bool { return len(b.in) > 0 }

func (b *Inbox[T]) drain() {
	for i := range b.out {
		b.fn(&b.out[i])
	}
	clear(b.out) // drop what the values point to
}
