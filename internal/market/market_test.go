package market

import (
	"testing"
	"testing/quick"

	"dbo/internal/sim"
)

func TestDeliveryClockCompare(t *testing.T) {
	t.Parallel()
	cases := []struct {
		a, b DeliveryClock
		want int
	}{
		{DeliveryClock{1, 0}, DeliveryClock{1, 0}, 0},
		{DeliveryClock{1, 5}, DeliveryClock{1, 9}, -1},
		{DeliveryClock{1, 9}, DeliveryClock{1, 5}, 1},
		{DeliveryClock{1, 999}, DeliveryClock{2, 0}, -1}, // point dominates
		{DeliveryClock{3, 0}, DeliveryClock{2, 999}, 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := c.a.Less(c.b); got != (c.want < 0) {
			t.Errorf("Less(%v, %v) = %v", c.a, c.b, got)
		}
		if got := c.a.AtLeast(c.b); got != (c.want >= 0) {
			t.Errorf("AtLeast(%v, %v) = %v", c.a, c.b, got)
		}
	}
}

func TestDeliveryClockCompareAntisymmetric(t *testing.T) {
	t.Parallel()
	f := func(p1, p2 uint64, e1, e2 int64) bool {
		a := DeliveryClock{PointID(p1), sim.Time(e1)}
		b := DeliveryClock{PointID(p2), sim.Time(e2)}
		return a.Compare(b) == -b.Compare(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeliveryClockCompareTransitive(t *testing.T) {
	t.Parallel()
	f := func(ps [3]uint8, es [3]int8) bool {
		cs := make([]DeliveryClock, 3)
		for i := range cs {
			cs[i] = DeliveryClock{PointID(ps[i] % 4), sim.Time(es[i] % 4)}
		}
		a, b, c := cs[0], cs[1], cs[2]
		if a.Less(b) && b.Less(c) && !a.Less(c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestOrderingTieBreak(t *testing.T) {
	t.Parallel()
	dc := DeliveryClock{5, 100}
	a := Ordering{DC: dc, MP: 1, Seq: 2}
	b := Ordering{DC: dc, MP: 2, Seq: 1}
	if !a.Less(b) || b.Less(a) {
		t.Error("equal DC must tie-break by MP")
	}
	c := Ordering{DC: dc, MP: 1, Seq: 3}
	if !a.Less(c) || c.Less(a) {
		t.Error("equal DC and MP must tie-break by Seq")
	}
	d := Ordering{DC: DeliveryClock{4, 999}, MP: 9, Seq: 9}
	if !d.Less(a) {
		t.Error("DC dominates all tie-breaks")
	}
}

func TestOrderingTotal(t *testing.T) {
	t.Parallel()
	f := func(p1, p2 uint8, e1, e2 int8, m1, m2 uint8, s1, s2 uint8) bool {
		a := Ordering{DeliveryClock{PointID(p1 % 3), sim.Time(e1 % 3)}, ParticipantID(m1 % 3), TradeSeq(s1 % 3)}
		b := Ordering{DeliveryClock{PointID(p2 % 3), sim.Time(e2 % 3)}, ParticipantID(m2 % 3), TradeSeq(s2 % 3)}
		if a == b {
			return !a.Less(b) && !b.Less(a)
		}
		return a.Less(b) != b.Less(a) // exactly one direction
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestBatchLastPoint(t *testing.T) {
	t.Parallel()
	b := &Batch{ID: 1}
	if b.LastPoint() != 0 {
		t.Error("empty batch LastPoint should be 0")
	}
	b.Points = []DataPoint{{ID: 7}, {ID: 8}, {ID: 9}}
	if b.LastPoint() != 9 {
		t.Errorf("LastPoint = %d, want 9", b.LastPoint())
	}
}

func TestTradeKey(t *testing.T) {
	t.Parallel()
	tr := &Trade{MP: 3, Seq: 14}
	if tr.Key() != (TradeKey{3, 14}) {
		t.Errorf("Key = %v", tr.Key())
	}
	if got := tr.Key().String(); got != "(3,14)" {
		t.Errorf("String = %q", got)
	}
}

func TestSideString(t *testing.T) {
	t.Parallel()
	if Buy.String() != "buy" || Sell.String() != "sell" {
		t.Error("Side.String mismatch")
	}
}

func TestDeliveryClockString(t *testing.T) {
	t.Parallel()
	got := DeliveryClock{3, 1500}.String()
	if got != "⟨3, 1.500µs⟩" {
		t.Errorf("String = %q", got)
	}
}

// TestTradeArena holds the arena to its contract: every slot comes back
// zeroed and distinct, a pointer handed out before several chunk refills
// still reads what was written through it, and 512 New calls cost one
// allocation, the chunk.
func TestTradeArena(t *testing.T) {
	var a TradeArena
	first := a.New()
	first.MP, first.Seq = 7, 42
	seen := map[*Trade]bool{first: true}
	for i := 0; i < 3*arenaChunk; i++ {
		tr := a.New()
		if *tr != (Trade{}) {
			t.Fatalf("New #%d: %+v, want a zeroed trade", i+2, *tr)
		}
		if seen[tr] {
			t.Fatalf("New #%d returned a slot already handed out", i+2)
		}
		seen[tr] = true
		tr.MP, tr.Seq = ParticipantID(i), TradeSeq(i)
	}
	if first.MP != 7 || first.Seq != 42 {
		t.Errorf("first trade reads (%d, %d) after three refills, want (7, 42)", first.MP, first.Seq)
	}

	var b TradeArena
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < arenaChunk; i++ {
			b.New()
		}
	})
	if allocs != 1 {
		t.Errorf("%v allocations per %d New calls, want 1 (the chunk)", allocs, arenaChunk)
	}
}
