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

// Tracker accumulates outcomes grouped by trigger point.
type Tracker struct {
	races map[market.PointID][]Outcome
	n     int
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{races: make(map[market.PointID][]Outcome)}
}

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
	t.races[o.Trigger] = append(t.races[o.Trigger], o)
	t.n++
}

// Trades reports the number of recorded outcomes.
func (t *Tracker) Trades() int { return t.n }

// Races reports the number of distinct trigger points seen.
func (t *Tracker) Races() int { return len(t.races) }

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
	trigs := make([]market.PointID, 0, len(t.races))
	for trig := range t.races {
		trigs = append(trigs, trig)
	}
	slices.Sort(trigs)
	var r stats.Ratio
	var viols []Violation
	for _, trig := range trigs {
		outs := t.races[trig]
		for i := 0; i < len(outs); i++ {
			for j := i + 1; j < len(outs); j++ {
				a, b := outs[i], outs[j]
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
