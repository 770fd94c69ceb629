// Package fairness implements the paper's evaluation metric (§6.1):
//
//	"For any number of MPs, perfect fairness is achieved when all
//	 competing trades among all unique pairs of participants are fully
//	 ordered (from faster to slower). We define the metric of fairness
//	 as the ratio of the number of competing trade sets that were
//	 ordered correctly to the total number of competing trade sets for
//	 all unique pairs of market participants."
//
// The tracker holds ground truth the harness knows (trigger point and
// response time of every trade — §6.1: "For the purpose of reporting
// latency and fairness (and not for ordering trades in DBO), we assume
// that the trigger point is known") and scores the final execution
// order produced by a scheme.
package fairness

import (
	"cmp"
	"slices"

	"dbo/internal/market"
	"dbo/internal/sim"
	"dbo/internal/stats"
)

// Outcome is one scored trade: its ground truth plus where the scheme
// placed it.
type Outcome struct {
	MP      market.ParticipantID
	Seq     market.TradeSeq
	Trigger market.PointID
	RT      sim.Time
	Pos     int  // final execution position; ignored when Lost
	Lost    bool // never executed (dropped trade, crashed OB, ...)
}

// Tracker accumulates outcomes in record order and groups them by
// trigger point when it scores. Outcomes are kept in fixed-size chunks,
// so a long run's list is never copied to grow, and grouping sorts
// their indices by (trigger, index), not the outcomes themselves: each
// race's outcomes keep their record order.
type Tracker struct {
	chunks  []*[chunkLen]Outcome
	n       int
	grouped []int // outcome indices by (trigger, index); stale while shorter than n
}

// chunkLen is the number of outcomes one chunk holds.
const chunkLen = 1 << 10

// NewTracker returns an empty tracker.
func NewTracker() *Tracker { return &Tracker{} }

// Record scores an executed trade. The trade must carry its ground
// truth (Trigger, RT) and its final position (FinalPos).
func (t *Tracker) Record(tr *market.Trade) {
	t.add(Outcome{MP: tr.MP, Seq: tr.Seq, Trigger: tr.Trigger, RT: tr.RT, Pos: tr.FinalPos})
}

// RecordLost scores a trade that never reached the matching engine; it
// counts as mis-ordered against every competitor it should have beaten.
func (t *Tracker) RecordLost(tr *market.Trade) {
	t.add(Outcome{MP: tr.MP, Seq: tr.Seq, Trigger: tr.Trigger, RT: tr.RT, Lost: true})
}

func (t *Tracker) add(o Outcome) {
	if t.n%chunkLen == 0 {
		t.chunks = append(t.chunks, new([chunkLen]Outcome))
	}
	*t.at(t.n) = o
	t.n++
}

// at is the i-th outcome recorded.
func (t *Tracker) at(i int) *Outcome { return &t.chunks[i/chunkLen][i%chunkLen] }

// Trades reports the number of recorded outcomes.
func (t *Tracker) Trades() int { return t.n }

// Races reports the number of distinct trigger points seen.
func (t *Tracker) Races() int {
	idx, n := t.group(), 0
	for i := 0; i < len(idx); i = t.raceEnd(idx, i) {
		n++
	}
	return n
}

// group returns the outcome indices ordered by (trigger, index): each
// race is one run of indices in record order, and the races are in
// ascending trigger order.
func (t *Tracker) group() []int {
	if len(t.grouped) < t.n {
		t.grouped = make([]int, t.n)
		for i := range t.grouped {
			t.grouped[i] = i
		}
		slices.SortFunc(t.grouped, func(a, b int) int {
			return cmp.Or(cmp.Compare(t.at(a).Trigger, t.at(b).Trigger), cmp.Compare(a, b))
		})
	}
	return t.grouped
}

// raceEnd is the end of the race that starts at idx[i].
func (t *Tracker) raceEnd(idx []int, i int) int {
	j, trig := i+1, t.at(idx[i]).Trigger
	for j < len(idx) && t.at(idx[j]).Trigger == trig {
		j++
	}
	return j
}

// Violation is one mis-ordered competing pair, for debugging.
type Violation struct {
	Trigger        market.PointID
	Faster, Slower Outcome
}

// Fairness scores every unique cross-participant pair of competing
// trades (same trigger, different MPs, strictly different response
// times). A pair is correct when the lower-RT trade executed first.
func (t *Tracker) Fairness() float64 {
	r := t.Ratio()
	return r.Value()
}

// Ratio returns the fairness counter itself (correct, total).
func (t *Tracker) Ratio() stats.Ratio {
	r, _ := t.score(false, 0)
	return r
}

// Violations returns up to max mis-ordered pairs (max ≤ 0 = all), in
// ascending trigger order.
func (t *Tracker) Violations(max int) []Violation {
	_, v := t.score(true, max)
	return v
}

// Score returns the fairness counter and up to max mis-ordered pairs
// (max ≤ 0 = all) from one pass over the races.
func (t *Tracker) Score(max int) (stats.Ratio, []Violation) { return t.score(true, max) }

// score visits triggers in ascending id, so a seeded run reports the
// same violations every time.
func (t *Tracker) score(collect bool, max int) (stats.Ratio, []Violation) {
	var r stats.Ratio
	var viols []Violation
	idx := t.group()
	for lo, hi := 0, 0; lo < len(idx); lo = hi {
		hi = t.raceEnd(idx, lo)
		race, trig := idx[lo:hi], t.at(idx[lo]).Trigger
		for i := 0; i < len(race); i++ {
			for j := i + 1; j < len(race); j++ {
				a, b := *t.at(race[i]), *t.at(race[j])
				if a.MP == b.MP || a.RT == b.RT {
					continue // same participant or no ground-truth winner
				}
				if b.RT < a.RT {
					a, b = b, a // a is the faster trade
				}
				ok := !a.Lost && (b.Lost || a.Pos < b.Pos)
				r.Observe(ok)
				if !ok && collect && (max <= 0 || len(viols) < max) {
					viols = append(viols, Violation{Trigger: trig, Faster: a, Slower: b})
				}
			}
		}
	}
	return r, viols
}
