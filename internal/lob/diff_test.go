package lob

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"
)

// A book op is four bytes: kind, target, a, b. target picks an id among
// those issued so far (resting, filled, canceled or never rested alike);
// a and b carry the order's side, price, quantity and owner.
const (
	opGTC = iota
	opIOC
	opFOK
	opCancel
	opReplace
	opReuseID // submit under the target's id: a duplicate while it rests
	opBad     // zero quantity or zero price
	bookOpKinds
)

// orderOp builds an op carrying an order: side, price offset (0–9 above
// 95) and quantity (1–5), owned by participant 1.
func orderOp(kind, target byte, side Side, priceOff, qty int) []byte {
	return []byte{kind, target, byte(side) | byte(priceOff)<<1, byte(qty-1) | 1<<4}
}

func submitOp(kind byte, side Side, priceOff, qty int) []byte {
	return orderOp(kind, 0, side, priceOff, qty)
}

func cancelOp(target byte) []byte { return []byte{opCancel, target, 0, 0} }

// bookSeeds are the hand-written op sequences the differential test and
// the fuzzer start from; TestBookSeedsReachTheirStates says what each
// must drive the book into.
func bookSeeds() [][]byte {
	cat := func(ops ...[]byte) []byte { return slices.Concat(ops...) }
	return [][]byte{
		// cancel-of-top: three bids, cancel the best (heap position 0),
		// then a sell that must meet the next best.
		cat(submitOp(opGTC, Buy, 3, 1), submitOp(opGTC, Buy, 5, 1), submitOp(opGTC, Buy, 4, 1),
			cancelOp(1), submitOp(opGTC, Sell, 0, 2)),
		// cancel-of-last: cancel the order in the heap's last position
		// (the newest, worst ask), the removal that needs no sift.
		cat(submitOp(opGTC, Sell, 2, 1), submitOp(opGTC, Sell, 3, 1), submitOp(opGTC, Sell, 4, 1),
			cancelOp(2), submitOp(opGTC, Buy, 9, 5)),
		// cancel-then-reuse-slot: the canceled order's slab slot is taken
		// by the next resting order, which then trades.
		cat(submitOp(opGTC, Buy, 2, 2), submitOp(opGTC, Buy, 3, 2), cancelOp(0),
			submitOp(opGTC, Buy, 4, 3), submitOp(opGTC, Sell, 0, 5)),
		// fills-and-rests: a taker sweeps two levels and rests its
		// remainder, growing the slab right after makers were read.
		cat(submitOp(opGTC, Sell, 1, 2), submitOp(opGTC, Sell, 2, 1), submitOp(opGTC, Buy, 6, 5),
			submitOp(opIOC, Sell, 0, 1)),
		// errors: a replace, a duplicate id, two bad orders, a killed
		// and a filled FOK, and an id re-used after its order left.
		cat(submitOp(opGTC, Buy, 1, 3), submitOp(opGTC, Sell, 8, 3), orderOp(opReplace, 0, Sell, 8, 1),
			orderOp(opReuseID, 1, Buy, 2, 1), []byte{opBad, 0, 0, 0}, []byte{opBad, 0, 0, 1},
			submitOp(opFOK, Buy, 9, 5), submitOp(opFOK, Buy, 9, 4), orderOp(opReuseID, 0, Sell, 9, 1)),
	}
}

// bookRun is what a differential run saw, for the seed-honesty test.
type bookRun struct {
	fills, cancels, topCancels, lastCancels int
	slotReuses, filledAndRested             int
	dupErrs, badErrs, unknownErrs           int
}

// runBookOps drives the book and the container/heap reference through
// the same ops and fails on the first observable difference.
func runBookOps(t testing.TB, ops []byte) bookRun {
	t.Helper()
	got, want := NewBook(), newRefBook()
	var run bookRun
	var issued OrderID
	canceledSlots := map[int32]bool{} // freed by a cancel, not yet taken again
	for step := 0; len(ops) >= 4; step, ops = step+1, ops[4:] {
		kind, target, a, b := ops[0]%bookOpKinds, OrderID(ops[1]), ops[2], ops[3]
		if issued > 0 {
			target = 1 + target%issued
		}
		o := Order{
			Owner: int32(b >> 4), Side: Side(a & 1),
			Price: 95 + int64(a>>1)%10, Qty: 1 + int64(b&15)%5,
		}
		switch kind {
		case opReuseID:
			o.ID = target
		case opBad:
			issued++
			o.ID = issued
			if b&1 == 0 {
				o.Qty = 0
			} else {
				o.Price = 0
			}
		case opCancel:
		default:
			issued++
			o.ID = issued
		}
		ro := refOrder{ID: o.ID, Owner: o.Owner, Side: o.Side, Price: o.Price, Qty: o.Qty}

		var gotEx, wantEx []Execution
		var gotErr, wantErr error
		switch kind {
		case opCancel:
			if idx, ok := got.byID[target]; ok {
				run.cancels++
				canceledSlots[idx] = true
				switch c := &got.slab[idx]; int(c.pos) {
				case 0:
					run.topCancels++
				case len(got.side(c.Side).heap) - 1:
					run.lastCancels++
				}
			}
			gotErr, wantErr = got.Cancel(target), want.Cancel(target)
		case opReplace:
			gotEx, gotErr = got.Replace(target, o)
			wantEx, wantErr = want.Replace(target, ro)
		default:
			tif := GTC
			switch kind {
			case opIOC:
				tif = IOC
			case opFOK:
				tif = FOK
			}
			gotEx, gotErr = got.SubmitTIF(o, tif)
			wantEx, wantErr = want.SubmitTIF(ro, tif)
		}
		if !slices.Equal(gotEx, wantEx) {
			t.Fatalf("step %d (kind %d, %+v): executions\n got  %+v\n want %+v", step, kind, o, gotEx, wantEx)
		}
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("step %d (kind %d, %+v): err %v, want %v", step, kind, o, gotErr, wantErr)
		}
		for _, sentinel := range []error{ErrBadOrder, ErrDuplicateID, ErrUnknownOrder} {
			if errors.Is(gotErr, sentinel) != errors.Is(wantErr, sentinel) {
				t.Fatalf("step %d: err %v does not wrap what %v wraps", step, gotErr, wantErr)
			}
		}
		if got.Open() != want.Open() {
			t.Fatalf("step %d: open %d, want %d", step, got.Open(), want.Open())
		}
		gp, gq, gok := got.BestBid()
		wp, wq, wok := want.BestBid()
		if gp != wp || gq != wq || gok != wok {
			t.Fatalf("step %d: best bid %d/%d/%v, want %d/%d/%v", step, gp, gq, gok, wp, wq, wok)
		}
		gp, gq, gok = got.BestAsk()
		wp, wq, wok = want.BestAsk()
		if gp != wp || gq != wq || gok != wok {
			t.Fatalf("step %d: best ask %d/%d/%v, want %d/%d/%v", step, gp, gq, gok, wp, wq, wok)
		}
		if got.Crossed() != want.Crossed() {
			t.Fatalf("step %d: crossed %v, want %v", step, got.Crossed(), want.Crossed())
		}
		for _, n := range []int{0, 1, 3, 64} {
			gb, ga := got.Depth(n)
			wb, wa := want.Depth(n)
			if !slices.Equal(gb, wb) || !slices.Equal(ga, wa) {
				t.Fatalf("step %d: depth(%d) %v | %v, want %v | %v", step, n, gb, ga, wb, wa)
			}
		}
		checkBookStructure(t, step, got)

		run.fills += len(gotEx)
		if idx, rests := got.byID[o.ID]; kind != opCancel && gotErr == nil && rests {
			if len(gotEx) > 0 {
				run.filledAndRested++
			}
			if canceledSlots[idx] {
				run.slotReuses++
				delete(canceledSlots, idx)
			}
		}
		switch {
		case errors.Is(gotErr, ErrDuplicateID):
			run.dupErrs++
		case errors.Is(gotErr, ErrBadOrder):
			run.badErrs++
		case errors.Is(gotErr, ErrUnknownOrder):
			run.unknownErrs++
		}
	}
	return run
}

// checkBookStructure verifies what the reference cannot see: the heap
// property on both sides, every order's recorded position, and that
// slab slots are exactly the resting orders plus the free list.
func checkBookStructure(t testing.TB, step int, b *Book) {
	t.Helper()
	for _, s := range []*bookSide{&b.bids, &b.asks} {
		for i, idx := range s.heap {
			o := &b.slab[idx]
			if int(o.pos) != i {
				t.Fatalf("step %d: order %d records heap position %d, sits at %d", step, o.ID, o.pos, i)
			}
			if i > 0 && s.before(o, &b.slab[s.heap[(i-1)/2]]) {
				t.Fatalf("step %d: heap property broken at position %d", step, i)
			}
			if at, ok := b.byID[o.ID]; !ok || at != idx {
				t.Fatalf("step %d: order %d in slot %d, index says %d/%v", step, o.ID, idx, at, ok)
			}
			if (o.Side == Buy) != s.bids {
				t.Fatalf("step %d: order %d rests on the wrong side", step, o.ID)
			}
		}
	}
	if resting := len(b.bids.heap) + len(b.asks.heap); resting != len(b.byID) || resting+len(b.free) != len(b.slab) {
		t.Fatalf("step %d: %d resting, %d indexed, %d free, %d slots", step, resting, len(b.byID), len(b.free), len(b.slab))
	}
}

func TestBookDifferential(t *testing.T) {
	t.Parallel()
	for _, ops := range bookSeeds() {
		runBookOps(t, ops)
	}
	var total bookRun
	for seed := uint64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewPCG(seed, 18))
		ops := make([]byte, 4*400)
		for i := range ops {
			ops[i] = byte(rng.Uint32())
		}
		// Bias towards resting submits so cancels and replaces find
		// something on the book.
		for i := 0; i < len(ops); i += 4 {
			if rng.IntN(3) == 0 {
				ops[i] = opGTC
			}
		}
		run := runBookOps(t, ops)
		total.fills += run.fills
		total.cancels += run.cancels
		total.topCancels += run.topCancels
		total.lastCancels += run.lastCancels
		total.slotReuses += run.slotReuses
		total.filledAndRested += run.filledAndRested
		total.dupErrs += run.dupErrs
		total.badErrs += run.badErrs
		total.unknownErrs += run.unknownErrs
	}
	if total.fills < 10000 || total.cancels < 1000 || total.topCancels == 0 || total.lastCancels == 0 ||
		total.slotReuses == 0 || total.filledAndRested == 0 || total.dupErrs == 0 || total.badErrs == 0 || total.unknownErrs == 0 {
		t.Errorf("random ops missed a case: %+v", total)
	}
}

func FuzzBookDifferential(f *testing.F) {
	for _, ops := range bookSeeds() {
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runBookOps(t, ops) })
}

// TestBookSeedsReachTheirStates keeps the named seeds honest: each has
// to drive the book through the case it is named for.
func TestBookSeedsReachTheirStates(t *testing.T) {
	t.Parallel()
	seeds := bookSeeds()
	if r := runBookOps(t, seeds[0]); r.topCancels != 1 || r.fills != 2 {
		t.Errorf("cancel-of-top seed: %+v", r)
	}
	if r := runBookOps(t, seeds[1]); r.lastCancels != 1 || r.fills != 2 {
		t.Errorf("cancel-of-last seed: %+v", r)
	}
	if r := runBookOps(t, seeds[2]); r.cancels != 1 || r.slotReuses != 1 || r.fills != 2 {
		t.Errorf("cancel-then-reuse-slot seed: %+v", r)
	}
	if r := runBookOps(t, seeds[3]); r.filledAndRested != 1 || r.fills != 3 {
		t.Errorf("fills-and-rests seed: %+v", r)
	}
	if r := runBookOps(t, seeds[4]); r.dupErrs != 1 || r.badErrs != 2 || r.fills == 0 {
		t.Errorf("errors seed: %+v", r)
	}
}

// TestSubmitZeroAlloc pins the tentpole: on a warmed book a resting
// order, a crossing order and a cancel allocate nothing.
func TestSubmitZeroAlloc(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 64; i++ { // a standing book either side of the touch
		e.Submit(1, 1, Buy, int64(90-i%8), 1)
		e.Submit(1, 1, Sell, int64(110+i%8), 1)
	}
	book := e.Book(1)
	id := OrderID(1 << 32)
	cycle := func() {
		e.Submit(1, 2, Sell, 100, 2) // rests
		if _, ex, err := e.Submit(1, 3, Buy, 100, 3); err != nil || len(ex) != 1 {
			t.Fatalf("cross: ex=%v err=%v", ex, err) // fills and rests one
		}
		if _, ex, _ := e.Submit(1, 2, Sell, 100, 1); len(ex) != 1 {
			t.Fatalf("cross: ex=%v", ex)
		}
		id++
		if _, err := book.SubmitTIF(Order{ID: id, Owner: 4, Side: Buy, Price: 95, Qty: 1}, GTC); err != nil {
			t.Fatal(err)
		}
		if err := book.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4096; i++ {
		cycle()
	}
	if a := testing.AllocsPerRun(1000, cycle); a != 0 {
		t.Errorf("warmed book: %v allocs per rest+cross+cancel cycle, want 0", a)
	}
	if book.Open() != 128 || book.Crossed() {
		t.Errorf("book after the probe: open %d, crossed %v", book.Open(), book.Crossed())
	}
}
