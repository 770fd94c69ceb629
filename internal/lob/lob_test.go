package lob

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func TestSideOpposite(t *testing.T) {
	t.Parallel()
	if Buy.Opposite() != Sell || Sell.Opposite() != Buy {
		t.Error("Opposite broken")
	}
	if Buy.String() != "buy" || Sell.String() != "sell" {
		t.Error("String broken")
	}
}

func TestSubmitRestsWhenNoCross(t *testing.T) {
	t.Parallel()
	b := NewBook()
	ex, err := b.Submit(Order{ID: 1, Side: Buy, Price: 100, Qty: 5})
	if err != nil || len(ex) != 0 {
		t.Fatalf("ex=%v err=%v", ex, err)
	}
	price, qty, ok := b.BestBid()
	if !ok || price != 100 || qty != 5 {
		t.Fatalf("best bid = %d/%d/%v", price, qty, ok)
	}
	if _, _, ok := b.BestAsk(); ok {
		t.Fatal("ask side should be empty")
	}
	if b.Open() != 1 {
		t.Fatalf("open = %d", b.Open())
	}
}

func TestFullMatch(t *testing.T) {
	t.Parallel()
	b := NewBook()
	mustSubmit(t, b, Order{ID: 1, Owner: 10, Side: Sell, Price: 100, Qty: 5})
	ex, err := b.Submit(Order{ID: 2, Owner: 20, Side: Buy, Price: 100, Qty: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex) != 1 {
		t.Fatalf("executions = %v", ex)
	}
	e := ex[0]
	if e.Maker != 1 || e.Taker != 2 || e.Price != 100 || e.Qty != 5 || e.MakerOwner != 10 || e.TakerOwner != 20 {
		t.Fatalf("exec = %+v", e)
	}
	if b.Open() != 0 {
		t.Fatalf("open = %d", b.Open())
	}
}

func TestPartialFillRests(t *testing.T) {
	t.Parallel()
	b := NewBook()
	mustSubmit(t, b, Order{ID: 1, Side: Sell, Price: 100, Qty: 3})
	ex, _ := b.Submit(Order{ID: 2, Side: Buy, Price: 101, Qty: 10})
	if len(ex) != 1 || ex[0].Qty != 3 || ex[0].Price != 100 {
		t.Fatalf("ex = %+v", ex)
	}
	price, qty, ok := b.BestBid()
	if !ok || price != 101 || qty != 7 {
		t.Fatalf("rest = %d/%d", price, qty)
	}
}

func TestExecutionAtMakerPrice(t *testing.T) {
	t.Parallel()
	b := NewBook()
	mustSubmit(t, b, Order{ID: 1, Side: Sell, Price: 99, Qty: 1})
	ex, _ := b.Submit(Order{ID: 2, Side: Buy, Price: 105, Qty: 1})
	if ex[0].Price != 99 {
		t.Fatalf("price = %d, want maker's 99", ex[0].Price)
	}
}

func TestPricePriority(t *testing.T) {
	t.Parallel()
	b := NewBook()
	mustSubmit(t, b, Order{ID: 1, Side: Sell, Price: 102, Qty: 1})
	mustSubmit(t, b, Order{ID: 2, Side: Sell, Price: 100, Qty: 1})
	mustSubmit(t, b, Order{ID: 3, Side: Sell, Price: 101, Qty: 1})
	ex, _ := b.Submit(Order{ID: 4, Side: Buy, Price: 102, Qty: 3})
	if len(ex) != 3 {
		t.Fatalf("ex = %v", ex)
	}
	if ex[0].Maker != 2 || ex[1].Maker != 3 || ex[2].Maker != 1 {
		t.Fatalf("match order = %v,%v,%v want 2,3,1", ex[0].Maker, ex[1].Maker, ex[2].Maker)
	}
}

func TestTimePriorityWithinLevel(t *testing.T) {
	t.Parallel()
	b := NewBook()
	mustSubmit(t, b, Order{ID: 1, Side: Buy, Price: 100, Qty: 1})
	mustSubmit(t, b, Order{ID: 2, Side: Buy, Price: 100, Qty: 1})
	mustSubmit(t, b, Order{ID: 3, Side: Buy, Price: 100, Qty: 1})
	ex, _ := b.Submit(Order{ID: 4, Side: Sell, Price: 100, Qty: 2})
	if ex[0].Maker != 1 || ex[1].Maker != 2 {
		t.Fatalf("time priority violated: %v,%v", ex[0].Maker, ex[1].Maker)
	}
}

func TestNoCrossNoMatch(t *testing.T) {
	t.Parallel()
	b := NewBook()
	mustSubmit(t, b, Order{ID: 1, Side: Sell, Price: 105, Qty: 1})
	ex, _ := b.Submit(Order{ID: 2, Side: Buy, Price: 104, Qty: 1})
	if len(ex) != 0 {
		t.Fatalf("should not match across spread: %v", ex)
	}
	if b.Crossed() {
		t.Fatal("book crossed")
	}
}

func TestCancel(t *testing.T) {
	t.Parallel()
	b := NewBook()
	mustSubmit(t, b, Order{ID: 1, Side: Sell, Price: 100, Qty: 1})
	mustSubmit(t, b, Order{ID: 2, Side: Sell, Price: 100, Qty: 1})
	if err := b.Cancel(1); err != nil {
		t.Fatal(err)
	}
	if b.Open() != 1 {
		t.Fatalf("open = %d", b.Open())
	}
	ex, _ := b.Submit(Order{ID: 3, Side: Buy, Price: 100, Qty: 1})
	if len(ex) != 1 || ex[0].Maker != 2 {
		t.Fatalf("canceled order matched: %v", ex)
	}
	if err := b.Cancel(1); !errors.Is(err, ErrUnknownOrder) {
		t.Fatalf("double cancel err = %v", err)
	}
}

func TestCancelUpdatesBest(t *testing.T) {
	t.Parallel()
	b := NewBook()
	mustSubmit(t, b, Order{ID: 1, Side: Buy, Price: 101, Qty: 1})
	mustSubmit(t, b, Order{ID: 2, Side: Buy, Price: 100, Qty: 1})
	b.Cancel(1)
	price, _, ok := b.BestBid()
	if !ok || price != 100 {
		t.Fatalf("best bid after cancel = %d", price)
	}
}

func TestSubmitErrors(t *testing.T) {
	t.Parallel()
	b := NewBook()
	if _, err := b.Submit(Order{ID: 1, Side: Buy, Price: 0, Qty: 1}); !errors.Is(err, ErrBadOrder) {
		t.Errorf("zero price err = %v", err)
	}
	if _, err := b.Submit(Order{ID: 1, Side: Buy, Price: 1, Qty: 0}); !errors.Is(err, ErrBadOrder) {
		t.Errorf("zero qty err = %v", err)
	}
	mustSubmit(t, b, Order{ID: 1, Side: Buy, Price: 1, Qty: 1})
	if _, err := b.Submit(Order{ID: 1, Side: Buy, Price: 1, Qty: 1}); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("dup err = %v", err)
	}
}

func TestDepth(t *testing.T) {
	t.Parallel()
	b := NewBook()
	mustSubmit(t, b, Order{ID: 1, Side: Buy, Price: 100, Qty: 2})
	mustSubmit(t, b, Order{ID: 2, Side: Buy, Price: 100, Qty: 3})
	mustSubmit(t, b, Order{ID: 3, Side: Buy, Price: 99, Qty: 1})
	mustSubmit(t, b, Order{ID: 4, Side: Sell, Price: 101, Qty: 4})
	bids, asks := b.Depth(2)
	if len(bids) != 2 || bids[0] != [2]int64{100, 5} || bids[1] != [2]int64{99, 1} {
		t.Fatalf("bids = %v", bids)
	}
	if len(asks) != 1 || asks[0] != [2]int64{101, 4} {
		t.Fatalf("asks = %v", asks)
	}
	// Depth must not disturb matching priority.
	ex, _ := b.Submit(Order{ID: 5, Side: Sell, Price: 100, Qty: 1})
	if ex[0].Maker != 1 {
		t.Fatalf("priority disturbed by Depth: %v", ex)
	}
}

func TestEngineMultiSymbol(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	_, ex, err := e.Submit(1, 1, Sell, 100, 1)
	if err != nil || len(ex) != 0 {
		t.Fatal(err)
	}
	// Same price on a different symbol must not match.
	_, ex, err = e.Submit(2, 2, Buy, 100, 1)
	if err != nil || len(ex) != 0 {
		t.Fatalf("cross-symbol match: %v", ex)
	}
	_, ex, err = e.Submit(1, 3, Buy, 100, 1)
	if err != nil || len(ex) != 1 {
		t.Fatalf("same-symbol match missing: %v", ex)
	}
	if e.Orders() != 3 {
		t.Fatalf("orders = %d", e.Orders())
	}
	if e.Executions() != 1 {
		t.Fatalf("executions = %d", e.Executions())
	}
}

func TestEngineExecSeqMonotone(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	for i := 0; i < 10; i++ {
		e.Submit(1, 1, Sell, 100, 1)
	}
	var last uint64
	for _, qty := range []int64{4, 6} {
		_, ex, err := e.Submit(1, 2, Buy, 100, qty)
		if err != nil || int64(len(ex)) != qty {
			t.Fatalf("ex=%v err=%v", ex, err)
		}
		for _, x := range ex {
			if x.Seq <= last {
				t.Fatal("exec seq not monotone")
			}
			last = x.Seq
		}
	}
	if e.Executions() != 10 {
		t.Fatalf("executions = %d", e.Executions())
	}
}

// Two symbols on one engine report to the same participants, so their
// execution sequence numbers must not collide.
func TestEngineExecSeqGlobalAcrossSymbols(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	var seqs []uint64
	for _, sym := range []uint32{1, 2, 1, 2} {
		e.Submit(sym, 1, Sell, 100, 1)
		_, ex, err := e.Submit(sym, 2, Buy, 100, 1)
		if err != nil || len(ex) != 1 {
			t.Fatalf("symbol %d: ex=%v err=%v", sym, ex, err)
		}
		seqs = append(seqs, ex[0].Seq)
	}
	if !slices.Equal(seqs, []uint64{1, 2, 3, 4}) {
		t.Fatalf("exec seqs across symbols = %v, want 1 2 3 4", seqs)
	}
	// A bare book keeps its own counter.
	b := NewBook()
	mustSubmit(t, b, Order{ID: 1, Side: Sell, Price: 100, Qty: 1})
	if ex, _ := b.Submit(Order{ID: 2, Side: Buy, Price: 100, Qty: 1}); len(ex) != 1 || ex[0].Seq != 1 {
		t.Fatalf("bare book exec = %v, want seq 1", ex)
	}
}

func TestEngineRejectsBadOrder(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	if _, _, err := e.Submit(1, 1, Buy, -5, 1); err == nil {
		t.Fatal("expected error")
	}
	if e.Orders() != 0 {
		t.Fatal("rejected order counted")
	}
}

// Property: after any sequence of submits/cancels, the book is never
// crossed and quantity is conserved (filled + resting + canceled = submitted).
func TestPropertyBookInvariants(t *testing.T) {
	t.Parallel()
	f := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		b := NewBook()
		ops := int(n)%120 + 1
		var submitted, filled int64
		resting := map[OrderID]bool{}
		var restingIDs []OrderID
		var canceledQty int64
		qtyOf := map[OrderID]int64{}
		for i := 0; i < ops; i++ {
			if rng.IntN(5) == 0 && len(restingIDs) > 0 {
				id := restingIDs[rng.IntN(len(restingIDs))]
				if resting[id] {
					// Canceled qty = remaining at cancel time; recompute below.
					if err := b.Cancel(id); err != nil {
						return false
					}
					resting[id] = false
					canceledQty += qtyOf[id]
				}
				continue
			}
			o := Order{
				ID:    OrderID(i + 1),
				Side:  Side(rng.IntN(2)),
				Price: int64(95 + rng.IntN(10)),
				Qty:   int64(1 + rng.IntN(5)),
			}
			submitted += o.Qty
			ex, err := b.Submit(o)
			if err != nil {
				return false
			}
			var got int64
			for _, e := range ex {
				filled += 2 * e.Qty // consumes qty from both sides
				got += e.Qty
				qtyOf[e.Maker] -= e.Qty
				if qtyOf[e.Maker] == 0 {
					resting[e.Maker] = false
				}
			}
			if got < o.Qty {
				resting[o.ID] = true
				qtyOf[o.ID] = o.Qty - got
				restingIDs = append(restingIDs, o.ID)
			}
			if b.Crossed() {
				return false
			}
		}
		var restQty int64
		for id, live := range resting {
			if live {
				restQty += qtyOf[id]
			}
		}
		return submitted == filled+restQty+canceledQty
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: executions never trade through — a buy taker never pays more
// than its limit, a sell taker never receives less.
func TestPropertyNoTradeThrough(t *testing.T) {
	t.Parallel()
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 11))
		b := NewBook()
		for i := 0; i < 200; i++ {
			o := Order{
				ID:    OrderID(i + 1),
				Side:  Side(rng.IntN(2)),
				Price: int64(90 + rng.IntN(20)),
				Qty:   int64(1 + rng.IntN(3)),
			}
			ex, err := b.Submit(o)
			if err != nil {
				return false
			}
			for _, e := range ex {
				if o.Side == Buy && e.Price > o.Price {
					return false
				}
				if o.Side == Sell && e.Price < o.Price {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func mustSubmit(t *testing.T, b *Book, o Order) {
	t.Helper()
	if _, err := b.Submit(o); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSubmitRest(b *testing.B) {
	book := NewBook()
	for i := 0; i < b.N; i++ {
		book.Submit(Order{ID: OrderID(i + 1), Side: Buy, Price: int64(1 + i%1000), Qty: 1})
	}
}

func BenchmarkSubmitMatch(b *testing.B) {
	book := NewBook()
	for i := 0; i < b.N; i++ {
		id := OrderID(2*i + 1)
		book.Submit(Order{ID: id, Side: Sell, Price: 100, Qty: 1})
		book.Submit(Order{ID: id + 1, Side: Buy, Price: 100, Qty: 1})
	}
}
