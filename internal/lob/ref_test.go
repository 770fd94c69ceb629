package lob

import (
	"container/heap"
	"fmt"
)

// The reference book for the differential tests: the container/heap
// implementation this package shipped before the slab and index heap,
// verbatim but for its type names (ref*), sharing nothing with Book but
// the exported value types and errors. Canceled orders stay in the heap
// as tombstones and are discarded lazily.

// refOrder is Order as the reference book stores it.
type refOrder struct {
	ID    OrderID
	Owner int32
	Side  Side
	Price int64
	Qty   int64

	seq      uint64 // arrival sequence for time priority
	canceled bool
}

// refQueue is a heap of resting orders: best price first, then
// earliest arrival. For bids best = highest price; for asks lowest.
type refQueue struct {
	orders []*refOrder
	bids   bool
}

func (q *refQueue) Len() int { return len(q.orders) }
func (q *refQueue) Less(i, j int) bool {
	a, b := q.orders[i], q.orders[j]
	if a.Price != b.Price {
		if q.bids {
			return a.Price > b.Price
		}
		return a.Price < b.Price
	}
	return a.seq < b.seq
}
func (q *refQueue) Swap(i, j int) { q.orders[i], q.orders[j] = q.orders[j], q.orders[i] }
func (q *refQueue) Push(x any)    { q.orders = append(q.orders, x.(*refOrder)) }
func (q *refQueue) Pop() any {
	old := q.orders
	n := len(old)
	o := old[n-1]
	old[n-1] = nil
	q.orders = old[:n-1]
	return o
}

// peek returns the best live order, discarding canceled ones lazily.
func (q *refQueue) peek() *refOrder {
	for q.Len() > 0 {
		top := q.orders[0]
		if !top.canceled {
			return top
		}
		heap.Pop(q)
	}
	return nil
}

// refBook is a single instrument's order book.
type refBook struct {
	bids, asks refQueue
	byID       map[OrderID]*refOrder
	nextSeq    uint64
	execSeq    uint64
}

// newRefBook returns an empty reference book.
func newRefBook() *refBook {
	b := &refBook{byID: make(map[OrderID]*refOrder)}
	b.bids.bids = true
	return b
}

// Submit matches an incoming GTC limit order against the book and rests
// any remainder. It returns the executions in match order.
func (b *refBook) Submit(o refOrder) ([]Execution, error) {
	return b.SubmitTIF(o, GTC)
}

// SubmitTIF matches an incoming limit order under the given time in
// force. FOK orders are checked against available crossing quantity
// before touching the book.
func (b *refBook) SubmitTIF(o refOrder, tif TimeInForce) ([]Execution, error) {
	if o.Qty <= 0 || o.Price <= 0 {
		return nil, ErrBadOrder
	}
	if _, dup := b.byID[o.ID]; dup {
		return nil, fmt.Errorf("%w: %d", ErrDuplicateID, o.ID)
	}
	if tif == FOK && b.crossableQty(o) < o.Qty {
		return nil, nil // killed: no executions, nothing rests
	}
	b.nextSeq++
	o.seq = b.nextSeq

	var execs []Execution
	opp := &b.asks
	if o.Side == Sell {
		opp = &b.bids
	}
	crosses := func(maker *refOrder) bool {
		if o.Side == Buy {
			return maker.Price <= o.Price
		}
		return maker.Price >= o.Price
	}
	for o.Qty > 0 {
		maker := opp.peek()
		if maker == nil || !crosses(maker) {
			break
		}
		qty := min(o.Qty, maker.Qty)
		b.execSeq++
		execs = append(execs, Execution{
			Maker: maker.ID, Taker: o.ID,
			MakerOwner: maker.Owner, TakerOwner: o.Owner,
			Price: maker.Price, Qty: qty, Seq: b.execSeq,
		})
		o.Qty -= qty
		maker.Qty -= qty
		if maker.Qty == 0 {
			heap.Pop(opp)
			delete(b.byID, maker.ID)
		}
	}
	if o.Qty > 0 && tif == GTC {
		rest := o // copy; heap owns the pointer
		same := &b.bids
		if o.Side == Sell {
			same = &b.asks
		}
		heap.Push(same, &rest)
		b.byID[o.ID] = &rest
	}
	return execs, nil
}

// crossableQty sums the live quantity the order could execute against.
func (b *refBook) crossableQty(o refOrder) int64 {
	opp := &b.asks
	if o.Side == Sell {
		opp = &b.bids
	}
	var total int64
	for _, m := range opp.orders {
		if m.canceled {
			continue
		}
		if o.Side == Buy && m.Price > o.Price {
			continue
		}
		if o.Side == Sell && m.Price < o.Price {
			continue
		}
		total += m.Qty
	}
	return total
}

// Replace atomically cancels a resting order and submits a replacement
// with new price/qty under a new id, losing time priority (the standard
// cancel-replace semantics). It returns the replacement's executions.
func (b *refBook) Replace(old OrderID, repl refOrder) ([]Execution, error) {
	if err := b.Cancel(old); err != nil {
		return nil, err
	}
	return b.Submit(repl)
}

// Cancel removes a resting order.
func (b *refBook) Cancel(id OrderID) error {
	o, ok := b.byID[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownOrder, id)
	}
	o.canceled = true
	delete(b.byID, id)
	return nil
}

// BestBid returns the highest resting bid (ok=false if none).
func (b *refBook) BestBid() (price, qty int64, ok bool) {
	if o := b.bids.peek(); o != nil {
		return o.Price, o.Qty, true
	}
	return 0, 0, false
}

// BestAsk returns the lowest resting ask (ok=false if none).
func (b *refBook) BestAsk() (price, qty int64, ok bool) {
	if o := b.asks.peek(); o != nil {
		return o.Price, o.Qty, true
	}
	return 0, 0, false
}

// Open reports the number of resting (non-canceled) orders.
func (b *refBook) Open() int { return len(b.byID) }

// Crossed reports whether the book is crossed (best bid ≥ best ask) —
// an invariant violation after Submit returns.
func (b *refBook) Crossed() bool {
	bid, _, okB := b.BestBid()
	ask, _, okA := b.BestAsk()
	return okB && okA && bid >= ask
}

// Depth returns up to n price levels per side as (price, totalQty)
// pairs, best first.
func (b *refBook) Depth(n int) (bids, asks [][2]int64) {
	collect := func(q *refQueue) [][2]int64 {
		// Aggregate by price without disturbing the heap: copy live
		// orders, sort by priority.
		live := make([]*refOrder, 0, q.Len())
		for _, o := range q.orders {
			if !o.canceled {
				live = append(live, o)
			}
		}
		cp := refQueue{orders: live, bids: q.bids}
		var out [][2]int64
		heap.Init(&cp)
		for cp.Len() > 0 && len(out) < n+1 {
			o := heap.Pop(&cp).(*refOrder)
			if len(out) > 0 && out[len(out)-1][0] == o.Price {
				out[len(out)-1][1] += o.Qty
				continue
			}
			if len(out) == n {
				break
			}
			out = append(out, [2]int64{o.Price, o.Qty})
		}
		return out
	}
	return collect(&b.bids), collect(&b.asks)
}
