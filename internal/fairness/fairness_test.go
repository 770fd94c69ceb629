package fairness

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"dbo/internal/market"
	"dbo/internal/sim"
)

func mk(mp market.ParticipantID, trig market.PointID, rt sim.Time, pos int) *market.Trade {
	return &market.Trade{MP: mp, Seq: 1, Trigger: trig, RT: rt, FinalPos: pos}
}

func TestEmptyTrackerIsVacuouslyFair(t *testing.T) {
	t.Parallel()
	tr := NewTracker()
	if tr.Fairness() != 1 {
		t.Error("empty tracker must score 1")
	}
	if tr.Trades() != 0 || tr.Races() != 0 {
		t.Error("counters not zero")
	}
}

func TestPerfectOrdering(t *testing.T) {
	t.Parallel()
	tr := NewTracker()
	tr.Record(mk(1, 5, 10, 0)) // fastest first
	tr.Record(mk(2, 5, 20, 1))
	tr.Record(mk(3, 5, 30, 2))
	if tr.Fairness() != 1 {
		t.Errorf("fairness = %v", tr.Fairness())
	}
	r := tr.Ratio()
	if r.Total != 3 || r.Correct != 3 {
		t.Errorf("ratio = %+v, want 3 pairs", r)
	}
}

func TestInvertedPairDetected(t *testing.T) {
	t.Parallel()
	tr := NewTracker()
	tr.Record(mk(1, 5, 20, 0)) // slower executed first
	tr.Record(mk(2, 5, 10, 1))
	if got := tr.Fairness(); got != 0 {
		t.Errorf("fairness = %v, want 0", got)
	}
	v := tr.Violations(0)
	if len(v) != 1 || v[0].Faster.MP != 2 || v[0].Slower.MP != 1 {
		t.Errorf("violations = %+v", v)
	}
}

func TestPairsAcrossTriggersNotCompeting(t *testing.T) {
	t.Parallel()
	tr := NewTracker()
	tr.Record(mk(1, 5, 20, 0))
	tr.Record(mk(2, 6, 10, 1)) // different race
	r := tr.Ratio()
	if r.Total != 0 {
		t.Errorf("cross-race pair scored: %+v", r)
	}
	if tr.Races() != 2 {
		t.Errorf("races = %d", tr.Races())
	}
}

func TestSameParticipantPairsSkipped(t *testing.T) {
	t.Parallel()
	tr := NewTracker()
	a := mk(1, 5, 10, 1)
	b := mk(1, 5, 20, 0)
	b.Seq = 2
	tr.Record(a)
	tr.Record(b)
	if tr.Ratio().Total != 0 {
		t.Error("same-MP pair must not count (causality is a separate condition)")
	}
}

func TestEqualRTSkipped(t *testing.T) {
	t.Parallel()
	tr := NewTracker()
	tr.Record(mk(1, 5, 10, 1))
	tr.Record(mk(2, 5, 10, 0))
	if tr.Ratio().Total != 0 {
		t.Error("equal-RT pair has no ground-truth winner")
	}
}

func TestLostTrades(t *testing.T) {
	t.Parallel()
	tr := NewTracker()
	fast := mk(1, 5, 10, 0)
	slow := mk(2, 5, 20, 0)
	// Fast trade lost: pair incorrect.
	tr.RecordLost(fast)
	tr.Record(slow)
	if tr.Fairness() != 0 {
		t.Errorf("lost fast trade: fairness = %v", tr.Fairness())
	}
	// Slow trade lost but fast executed: pair correct.
	tr2 := NewTracker()
	tr2.Record(fast)
	tr2.RecordLost(slow)
	if tr2.Fairness() != 1 {
		t.Errorf("lost slow trade: fairness = %v", tr2.Fairness())
	}
}

func TestViolationsCapped(t *testing.T) {
	t.Parallel()
	tr := NewTracker()
	for i := 0; i < 10; i++ {
		// All inverted: executed in reverse-RT order.
		tr.Record(mk(market.ParticipantID(i+1), 1, sim.Time(10-i), i))
	}
	if got := len(tr.Violations(3)); got != 3 {
		t.Errorf("capped violations = %d", got)
	}
	if got := len(tr.Violations(0)); got != 45 {
		t.Errorf("all violations = %d, want C(10,2)", got)
	}
}

// Violations come out in ascending trigger order whatever order the
// races were recorded in, and Score agrees with Ratio and Violations.
func TestScoreVisitsTriggersInOrder(t *testing.T) {
	t.Parallel()
	tr := NewTracker()
	for _, trig := range []market.PointID{40, 7, 23, 1, 99, 15} {
		tr.Record(mk(1, trig, 20, 0)) // slower executed first
		tr.Record(mk(2, trig, 10, 1))
	}
	r, v := tr.Score(4)
	if r != tr.Ratio() || r.Total != 6 || r.Correct != 0 {
		t.Errorf("score ratio = %+v, Ratio() = %+v", r, tr.Ratio())
	}
	var got []market.PointID
	for _, x := range v {
		got = append(got, x.Trigger)
	}
	if !slices.Equal(got, []market.PointID{1, 7, 15, 23}) {
		t.Errorf("first four violations at triggers %v, want 1 7 15 23", got)
	}
	if !slices.Equal(v, tr.Violations(4)) {
		t.Errorf("Score and Violations disagree")
	}
}

// Property: scoring an order that sorts each race by RT yields 1.0;
// reversing it yields 0.0; and fairness is always in [0,1].
func TestPropertyFairnessBounds(t *testing.T) {
	t.Parallel()
	f := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		races := int(n)%5 + 1
		sorted := NewTracker()
		reversed := NewTracker()
		random := NewTracker()
		pos := 0
		for r := 0; r < races; r++ {
			mps := rng.IntN(5) + 2
			rts := make([]sim.Time, mps)
			for i := range rts {
				rts[i] = sim.Time(rng.Int64N(1000)) // may collide; skipped pairs ok
			}
			for i := 0; i < mps; i++ {
				// Position by RT rank for "sorted": count of strictly smaller RTs.
				rank := 0
				for j := range rts {
					if rts[j] < rts[i] || (rts[j] == rts[i] && j < i) {
						rank++
					}
				}
				sorted.Record(&market.Trade{MP: market.ParticipantID(i + 1), Trigger: market.PointID(r + 1), RT: rts[i], FinalPos: pos + rank})
				reversed.Record(&market.Trade{MP: market.ParticipantID(i + 1), Trigger: market.PointID(r + 1), RT: rts[i], FinalPos: pos + (mps - 1 - rank)})
				random.Record(&market.Trade{MP: market.ParticipantID(i + 1), Trigger: market.PointID(r + 1), RT: rts[i], FinalPos: pos + rng.IntN(mps)})
			}
			pos += mps
		}
		if sorted.Fairness() != 1 {
			return false
		}
		if reversed.Ratio().Total > 0 && reversed.Fairness() != 0 {
			return false
		}
		fr := random.Fairness()
		return fr >= 0 && fr <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Races recorded interleaved across several chunks, and again after a
// first score, are scored exactly as per-race lists in record order
// score them: the same pairs, the same violations, in the same order.
func TestRacesSpanChunksInRecordOrder(t *testing.T) {
	t.Parallel()
	const triggers = 64
	rng := rand.New(rand.NewPCG(3, 5))
	tr := NewTracker()
	races := map[market.PointID][]Outcome{}
	record := func(n int) {
		for i := 0; i < n; i++ {
			o := Outcome{
				MP: market.ParticipantID(rng.IntN(5) + 1), Seq: market.TradeSeq(tr.Trades() + 1),
				Trigger: market.PointID(rng.IntN(triggers) + 1), RT: sim.Time(rng.IntN(50)), Pos: rng.IntN(1000),
			}
			tr.Record(&market.Trade{MP: o.MP, Seq: o.Seq, Trigger: o.Trigger, RT: o.RT, FinalPos: o.Pos})
			races[o.Trigger] = append(races[o.Trigger], o)
		}
	}
	want := func() (pairs int, viols []Violation) {
		for trig := market.PointID(1); trig <= triggers; trig++ {
			outs := races[trig]
			for i := range outs {
				for j := i + 1; j < len(outs); j++ {
					a, b := outs[i], outs[j]
					if a.MP == b.MP || a.RT == b.RT {
						continue
					}
					if b.RT < a.RT {
						a, b = b, a
					}
					pairs++
					if a.Pos >= b.Pos {
						viols = append(viols, Violation{Trigger: trig, Faster: a, Slower: b})
					}
				}
			}
		}
		return pairs, viols
	}
	for _, n := range []int{3*chunkLen + 5, chunkLen / 2} {
		record(n)
		r, v := tr.Score(0)
		pairs, viols := want()
		if r.Total != pairs || r.Total-r.Correct != len(viols) || !slices.Equal(v, viols) {
			t.Fatalf("after %d outcomes: %d pairs, %d violations; want %d and %d, in race record order",
				tr.Trades(), r.Total, len(v), pairs, len(viols))
		}
		if tr.Races() != len(races) {
			t.Errorf("Races() = %d, want %d", tr.Races(), len(races))
		}
	}
}
