package main

import (
	"dbo/internal/lob"
	"dbo/internal/market"
	"dbo/internal/sim"
)

// orderChecker scores the forwarded sequence as it passes: the sequence
// must be sorted by market.Ordering, and among trades racing on one
// trigger point the faster response must come first (§6.1). It is O(1)
// per trade (bounded by raceCap), so pipeline_full can run it inline
// and the live workloads replay CES.Forwarded() through it afterwards.
type orderChecker struct {
	// horizon is δ: a pair with a response time at or beyond it lies
	// outside limited-horizon fairness and is counted, not failed.
	// Zero scores every pair.
	horizon sim.Time

	prev  market.Ordering
	seen  bool
	races [raceRing]race
	tally tally
}

const (
	raceRing = 1 << 10 // open trigger points; forwarding trails generation by far fewer
	raceCap  = 64      // a trade is scored against this many most recent competitors
)

// race holds the trades forwarded so far on one trigger point.
type race struct {
	trigger market.PointID
	mp      []market.ParticipantID
	rt      []sim.Time
}

// observe scores the next forwarded trade.
func (c *orderChecker) observe(t *market.Trade) {
	ord := market.Ordering{DC: t.DC, MP: t.MP, Seq: t.Seq}
	if c.seen && ord.Less(c.prev) {
		c.tally.Misordered++
	}
	c.prev, c.seen = ord, true

	r := &c.races[t.Trigger%raceRing]
	if r.trigger != t.Trigger {
		r.trigger, r.mp, r.rt = t.Trigger, r.mp[:0], r.rt[:0]
	}
	for i := max(0, len(r.mp)-raceCap); i < len(r.mp); i++ {
		if r.mp[i] == t.MP || r.rt[i] == t.RT {
			continue // same participant, or no rightful winner
		}
		if c.horizon > 0 && (r.rt[i] >= c.horizon || t.RT >= c.horizon) {
			c.tally.Beyond++
			continue
		}
		c.tally.Pairs++
		if r.rt[i] > t.RT {
			c.tally.Unfair++ // the slower trade was forwarded first
		}
	}
	r.mp = append(r.mp, t.MP)
	r.rt = append(r.rt, t.RT)
}

// replayBook feeds a forwarded sequence to a fresh matching engine the
// way node.CES does and reports the fills it produces and whether any
// book ended up crossed: the live exchange's fill count must match it.
func replayBook(fwd []*market.Trade) (fills int, crossed bool) {
	e := lob.NewEngine()
	symbols := map[uint32]bool{}
	for _, t := range fwd {
		_, execs, err := e.Submit(t.Symbol, int32(t.MP), lobSide(t.Side), t.Price, t.Qty)
		if err != nil {
			continue // the CES drops bad orders the same way
		}
		fills += len(execs)
		symbols[t.Symbol] = true
	}
	for s := range symbols {
		crossed = crossed || e.Book(s).Crossed()
	}
	return fills, crossed
}

func lobSide(s market.Side) lob.Side {
	if s == market.Sell {
		return lob.Sell
	}
	return lob.Buy
}
