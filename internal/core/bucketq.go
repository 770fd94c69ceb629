package core

import (
	"sort"

	"dbo/internal/market"
)

// bucketQueue is the ordering buffer's priority queue: Pop yields the
// queued trades in (delivery clock, participant, sequence) order. It
// holds them bucketed by DC.Point. Buckets are kept in a slice sorted by
// point with a moving head index; trades within a bucket are kept sorted
// by (Elapsed, MP, Seq), also behind a moving head. The watermark gate
// only ever admits a DC-prefix of the queue, so pops walk the front
// bucket forward; exhausted buckets are recycled through a small free
// list, making the steady state allocation-free.
//
// Arrival is near-FIFO within a point (RBs tag with monotone local
// clocks), so the common insert is an append at the tail of the newest
// bucket. Out-of-order arrivals — straggler trades with clocks below
// already-released ones — take the general sorted-insert path, which
// may place an item at the current head (released items never need to
// be re-ordered against; only the relative order of the *remaining*
// items matters).
type bucketQueue struct {
	buckets []*pointBucket // sorted by point ascending; live from head on
	head    int
	free    []*pointBucket
	size    int
}

// maxFreeBuckets bounds the recycling list so a burst (e.g. a straggler
// backlog spanning many points) does not pin memory forever.
const maxFreeBuckets = 64

type pointBucket struct {
	point market.PointID
	items []*market.Trade // sorted by (Elapsed, MP, Seq); live from head on
	head  int
}

// ordKey is a trade's position in the final order: (delivery clock,
// participant, sequence).
func ordKey(t *market.Trade) market.Ordering {
	return market.Ordering{DC: t.DC, MP: t.MP, Seq: t.Seq}
}

// lessWithin orders two trades of the same point via the canonical
// (DC, MP, Seq) ordering; with equal points it reduces to
// (Elapsed, MP, Seq).
func lessWithin(a, b *market.Trade) bool {
	return ordKey(a).Less(ordKey(b))
}

func (q *bucketQueue) Len() int { return q.size }

func (q *bucketQueue) Push(t *market.Trade) {
	q.size++
	q.bucketFor(t.DC.Point).insert(t)
}

// bucketFor finds or creates the bucket for point p.
func (q *bucketQueue) bucketFor(p market.PointID) *pointBucket {
	live := q.buckets[q.head:]
	n := len(live)
	if n == 0 || live[n-1].point < p {
		// Fast path: a new, newest point.
		b := q.newBucket(p)
		q.buckets = append(q.buckets, b)
		return b
	}
	if live[n-1].point == p {
		return live[n-1] // fast path: the newest point again
	}
	i := sort.Search(n, func(i int) bool { return live[i].point >= p })
	if i < n && live[i].point == p {
		return live[i]
	}
	// Out-of-order point: splice a bucket in at position head+i.
	b := q.newBucket(p)
	q.buckets = append(q.buckets, nil)
	copy(q.buckets[q.head+i+1:], q.buckets[q.head+i:])
	q.buckets[q.head+i] = b
	return b
}

func (q *bucketQueue) newBucket(p market.PointID) *pointBucket {
	if n := len(q.free); n > 0 {
		b := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		b.point = p
		return b
	}
	//dbo:vet-ignore allocfree free-list miss only — steady state recycles buckets, TestPipelineZeroAlloc pins it
	return &pointBucket{point: p}
}

func (b *pointBucket) insert(t *market.Trade) {
	live := b.items[b.head:]
	n := len(live)
	if n == 0 || lessWithin(live[n-1], t) {
		b.items = append(b.items, t) // fast path: near-FIFO arrival
		return
	}
	i := sort.Search(n, func(i int) bool { return lessWithin(t, live[i]) })
	b.items = append(b.items, nil)
	copy(b.items[b.head+i+1:], b.items[b.head+i:])
	b.items[b.head+i] = t
}

// Peek returns the minimum queued trade without removing it, nil when
// empty.
func (q *bucketQueue) Peek() *market.Trade {
	if q.size == 0 {
		return nil
	}
	b := q.buckets[q.head]
	return b.items[b.head]
}

// Pop removes and returns the minimum queued trade; the queue must be
// non-empty.
func (q *bucketQueue) Pop() *market.Trade {
	b := q.buckets[q.head]
	t := b.items[b.head]
	b.items[b.head] = nil
	b.head++
	q.size--
	if b.head == len(b.items) {
		q.recycle(b)
		q.buckets[q.head] = nil
		q.head++
		q.compact()
	}
	return t
}

// compact reclaims the dead prefix of the bucket slice once it
// dominates, keeping the footprint proportional to the live window.
func (q *bucketQueue) compact() {
	if q.head == len(q.buckets) {
		q.buckets = q.buckets[:0]
		q.head = 0
		return
	}
	if q.head >= 32 && q.head*2 >= len(q.buckets) {
		n := copy(q.buckets, q.buckets[q.head:])
		clear(q.buckets[n:])
		q.buckets = q.buckets[:n]
		q.head = 0
	}
}

func (q *bucketQueue) recycle(b *pointBucket) {
	b.items = b.items[:0]
	b.head = 0
	if len(q.free) < maxFreeBuckets {
		q.free = append(q.free, b)
	}
}

// Drain removes and returns all queued trades in order (OB crash).
func (q *bucketQueue) Drain() []*market.Trade {
	out := make([]*market.Trade, 0, q.size)
	for q.size > 0 {
		out = append(out, q.Pop())
	}
	return out
}
