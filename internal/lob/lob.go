// Package lob implements the central exchange server's matching engine
// (ME): a price-time priority limit order book.
//
// DBO deliberately does not modify the matching engine (§3 Goals); the
// ordering buffer feeds it trades in delivery-clock order and the ME
// executes them exactly as an on-premise FCFS sequencer would. This
// package is that unmodified substrate.
//
// A warmed book does not allocate: resting orders live by value in a
// per-book slab, each side is a binary heap of slab indices, and the
// fills a submit returns are borrowed from the book (DESIGN §8.6).
package lob

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// OrderID identifies an order within the engine.
type OrderID uint64

// Side of an order.
type Side uint8

const (
	Buy Side = iota
	Sell
)

func (s Side) String() string {
	if s == Buy {
		return "buy"
	}
	return "sell"
}

// Opposite returns the matching side.
func (s Side) Opposite() Side { return 1 - s }

// Order is a limit order. Price is in fixed-point ticks; Qty is the
// remaining open quantity.
type Order struct {
	ID    OrderID
	Owner int32 // participant that placed it
	Side  Side
	Price int64
	Qty   int64

	seq uint64 // arrival sequence for time priority
	pos int32  // index in its side's heap while resting
}

// Execution reports a fill: the resting (maker) order and the incoming
// (taker) order traded qty at the maker's price.
type Execution struct {
	Maker, Taker OrderID
	MakerOwner   int32
	TakerOwner   int32
	Price        int64
	Qty          int64
	Seq          uint64 // execution sequence number
}

// bookSide is one side's resting orders: a binary heap of slab indices,
// best price first, then earliest arrival. For bids best = highest
// price; for asks lowest. Every order records its heap position, so any
// order can be removed in O(log n).
type bookSide struct {
	heap []int32
	bids bool
}

// before reports whether a has priority over c.
func (s *bookSide) before(a, c *Order) bool {
	if a.Price != c.Price {
		return (a.Price > c.Price) == s.bids
	}
	return a.seq < c.seq
}

func (s *bookSide) set(slab []Order, i int, idx int32) {
	s.heap[i] = idx
	slab[idx].pos = int32(i)
}

// up sifts the entry at i towards the root.
func (s *bookSide) up(slab []Order, i int) {
	idx := s.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !s.before(&slab[idx], &slab[s.heap[parent]]) {
			break
		}
		s.set(slab, i, s.heap[parent])
		i = parent
	}
	s.set(slab, i, idx)
}

// down sifts the entry at i towards the leaves.
func (s *bookSide) down(slab []Order, i int) {
	idx, n := s.heap[i], len(s.heap)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && s.before(&slab[s.heap[r]], &slab[s.heap[child]]) {
			child = r
		}
		if !s.before(&slab[s.heap[child]], &slab[idx]) {
			break
		}
		s.set(slab, i, s.heap[child])
		i = child
	}
	s.set(slab, i, idx)
}

func (s *bookSide) push(slab []Order, idx int32) {
	s.heap = append(s.heap, idx)
	s.up(slab, len(s.heap)-1)
}

// remove takes the entry at heap position i out.
func (s *bookSide) remove(slab []Order, i int) {
	last := len(s.heap) - 1
	moved := s.heap[last]
	s.heap = s.heap[:last]
	if i == last {
		return
	}
	s.heap[i] = moved
	s.down(slab, i)
	if s.heap[i] == moved {
		s.up(slab, i)
	}
}

// Book is a single instrument's order book.
type Book struct {
	slab       []Order // resting orders, by value; free lists the unused slots
	free       []int32
	bids, asks bookSide
	byID       map[OrderID]int32 // resting order id → slab index
	nextSeq    uint64
	execSeq    *uint64     // the engine's counter, or the book's own
	fills      []Execution // the last submit's executions, lent to its caller
}

// NewBook returns an empty book that numbers its own executions.
func NewBook() *Book { return newBook(new(uint64)) }

func newBook(execSeq *uint64) *Book {
	//dbo:vet-ignore allocfree first order on a symbol only — bounded by the symbol count, never in steady state
	b := &Book{byID: make(map[OrderID]int32), execSeq: execSeq}
	b.bids.bids = true
	return b
}

// Errors returned by the book.
var (
	ErrDuplicateID  = errors.New("lob: duplicate order id")
	ErrUnknownOrder = errors.New("lob: unknown order")
	ErrBadOrder     = errors.New("lob: order must have positive qty and price")
)

// TimeInForce controls what happens to the unmatched remainder of an
// order.
type TimeInForce uint8

const (
	// GTC rests the remainder on the book (good till cancel).
	GTC TimeInForce = iota
	// IOC cancels the remainder immediately (immediate or cancel).
	IOC
	// FOK executes fully or not at all (fill or kill).
	FOK
)

// Submit matches an incoming GTC limit order against the book and rests
// any remainder. It returns the executions in match order, borrowed as
// SubmitTIF describes.
func (b *Book) Submit(o Order) ([]Execution, error) {
	return b.SubmitTIF(o, GTC)
}

// SubmitTIF matches an incoming limit order under the given time in
// force. FOK orders are checked against available crossing quantity
// before touching the book.
//
// The returned executions are borrowed: the slice is the book's own and
// is valid until the next submit (or replace) on this book. Copy what
// must outlive that.
func (b *Book) SubmitTIF(o Order, tif TimeInForce) ([]Execution, error) {
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

	b.fills = b.fills[:0]
	opp := b.side(o.Side.Opposite())
	for o.Qty > 0 && len(opp.heap) > 0 {
		top := opp.heap[0]
		maker := &b.slab[top] // not held past the append that rests the taker
		if !o.crosses(maker.Price) {
			break
		}
		qty := min(o.Qty, maker.Qty)
		*b.execSeq++
		b.fills = append(b.fills, Execution{
			Maker: maker.ID, Taker: o.ID,
			MakerOwner: maker.Owner, TakerOwner: o.Owner,
			Price: maker.Price, Qty: qty, Seq: *b.execSeq,
		})
		o.Qty -= qty
		maker.Qty -= qty
		if maker.Qty == 0 {
			b.unrest(top)
		}
	}
	if o.Qty > 0 && tif == GTC {
		var idx int32
		if n := len(b.free); n > 0 {
			idx, b.free = b.free[n-1], b.free[:n-1]
			b.slab[idx] = o
		} else {
			idx = int32(len(b.slab))
			b.slab = append(b.slab, o)
		}
		b.side(o.Side).push(b.slab, idx)
		b.byID[o.ID] = idx
	}
	return b.fills, nil
}

// side returns the heap that orders of side s rest on.
func (b *Book) side(s Side) *bookSide {
	if s == Buy {
		return &b.bids
	}
	return &b.asks
}

// crosses reports whether a maker resting at price is within o's limit.
func (o *Order) crosses(price int64) bool {
	if o.Side == Buy {
		return price <= o.Price
	}
	return price >= o.Price
}

// unrest removes the resting order in slab slot idx from its heap and
// frees the slot.
func (b *Book) unrest(idx int32) {
	o := &b.slab[idx]
	b.side(o.Side).remove(b.slab, int(o.pos))
	delete(b.byID, o.ID)
	b.free = append(b.free, idx)
}

// crossableQty sums the quantity the order could execute against.
func (b *Book) crossableQty(o Order) int64 {
	var total int64
	for _, idx := range b.side(o.Side.Opposite()).heap {
		if m := &b.slab[idx]; o.crosses(m.Price) {
			total += m.Qty
		}
	}
	return total
}

// Replace atomically cancels a resting order and submits a replacement
// with new price/qty under a new id, losing time priority (the standard
// cancel-replace semantics). It returns the replacement's executions,
// borrowed as SubmitTIF describes.
func (b *Book) Replace(old OrderID, repl Order) ([]Execution, error) {
	if err := b.Cancel(old); err != nil {
		return nil, err
	}
	return b.Submit(repl)
}

// Cancel removes a resting order.
func (b *Book) Cancel(id OrderID) error {
	idx, ok := b.byID[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownOrder, id)
	}
	b.unrest(idx)
	return nil
}

func (b *Book) best(s *bookSide) (price, qty int64, ok bool) {
	if len(s.heap) == 0 {
		return 0, 0, false
	}
	o := &b.slab[s.heap[0]]
	return o.Price, o.Qty, true
}

// BestBid returns the highest resting bid (ok=false if none).
func (b *Book) BestBid() (price, qty int64, ok bool) { return b.best(&b.bids) }

// BestAsk returns the lowest resting ask (ok=false if none).
func (b *Book) BestAsk() (price, qty int64, ok bool) { return b.best(&b.asks) }

// Open reports the number of resting orders.
func (b *Book) Open() int { return len(b.byID) }

// Crossed reports whether the book is crossed (best bid ≥ best ask) —
// an invariant violation after Submit returns.
func (b *Book) Crossed() bool {
	bid, _, okB := b.BestBid()
	ask, _, okA := b.BestAsk()
	return okB && okA && bid >= ask
}

// Depth returns up to n price levels per side as (price, totalQty)
// pairs, best first.
func (b *Book) Depth(n int) (bids, asks [][2]int64) {
	collect := func(s *bookSide) [][2]int64 {
		// Aggregate by price without disturbing the heap: sort a copy
		// of its indices, best price first.
		byPrice := slices.Clone(s.heap)
		slices.SortFunc(byPrice, func(x, y int32) int {
			if s.bids {
				x, y = y, x
			}
			return cmp.Compare(b.slab[x].Price, b.slab[y].Price)
		})
		var out [][2]int64
		for _, idx := range byPrice {
			o := &b.slab[idx]
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

// Engine routes orders to per-symbol books and numbers executions
// globally across them, mirroring a single-threaded ME fed by the
// ordering buffer over a shared-memory channel (§5.2). It keeps counts,
// not a log: the fills of a submit go to its caller.
type Engine struct {
	books   map[uint32]*Book
	last    *Book // the book of lastSym: skips the map while one symbol trades
	lastSym uint32
	nextID  OrderID
	execSeq uint64 // shared by every book of this engine
	orders  int
	execs   int
}

// NewEngine returns an empty matching engine.
func NewEngine() *Engine { return &Engine{books: make(map[uint32]*Book)} }

// Book returns (creating if needed) the book for a symbol.
func (e *Engine) Book(symbol uint32) *Book {
	if e.last != nil && e.lastSym == symbol {
		return e.last
	}
	b, ok := e.books[symbol]
	if !ok {
		b = newBook(&e.execSeq)
		e.books[symbol] = b
	}
	e.last, e.lastSym = b, symbol
	return b
}

// Submit places a limit order, auto-assigning an OrderID. It returns
// the assigned id and the order's executions, which are borrowed: valid
// until the next submit on the same symbol.
func (e *Engine) Submit(symbol uint32, owner int32, side Side, price, qty int64) (OrderID, []Execution, error) {
	e.nextID++
	id := e.nextID
	execs, err := e.Book(symbol).Submit(Order{ID: id, Owner: owner, Side: side, Price: price, Qty: qty})
	if err != nil {
		e.nextID--
		return 0, nil, err
	}
	e.orders++
	e.execs += len(execs)
	return id, execs, nil
}

// Orders reports how many orders the engine accepted.
func (e *Engine) Orders() int { return e.orders }

// Executions reports how many fills the engine produced.
func (e *Engine) Executions() int { return e.execs }
