package core

import (
	"container/heap"

	"dbo/internal/market"
)

// tradeHeap is the reference order for the differential tests: a plain
// container/heap of trades by (delivery clock, participant, sequence),
// sharing nothing with bucketQueue but the comparator.
type tradeHeap []*market.Trade

func (h tradeHeap) Len() int           { return len(h) }
func (h tradeHeap) Less(i, j int) bool { return ordKey(h[i]).Less(ordKey(h[j])) }
func (h tradeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *tradeHeap) Push(x any)        { *h = append(*h, x.(*market.Trade)) }
func (h *tradeHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// heapQueue gives tradeHeap the method set of bucketQueue.
type heapQueue struct{ h tradeHeap }

func (q *heapQueue) Push(t *market.Trade) { heap.Push(&q.h, t) }
func (q *heapQueue) Peek() *market.Trade {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}
func (q *heapQueue) Pop() *market.Trade { return heap.Pop(&q.h).(*market.Trade) }
func (q *heapQueue) Len() int           { return len(q.h) }
func (q *heapQueue) Drain() []*market.Trade {
	out := make([]*market.Trade, 0, len(q.h))
	for len(q.h) > 0 {
		out = append(out, q.Pop())
	}
	return out
}
