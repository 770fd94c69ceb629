// Fixture for rule clockcmp, analyzed as package path
// "internal/exchange/cc" in a compiled mini-module that provides
// dbo/internal/market. The rule matches DeliveryClock by type
// identity: hand-rolled field orderings are flagged, the Appendix E
// Point-vs-watermark gate is allowed without a vet-ignore, and
// structurally similar non-clock types do not fire.
package cc

import "dbo/internal/market"

func handRolled(a, b market.DeliveryClock) bool {
	if a.Point < b.Point { // want "clockcmp.*Point vs Point"
		return true
	}
	return a.Elapsed < b.Elapsed // want "clockcmp.*Elapsed vs Elapsed"
}

func elapsedAlone(a market.DeliveryClock, cutoff market.Time) bool {
	return a.Elapsed > cutoff // want "clockcmp.*Elapsed"
}

// The Appendix E egress gate: a clock's Point against a plain PointID
// watermark. Point ids are globally ordered on their own, so this is
// legitimate.
func gate(tag market.DeliveryClock, watermark market.PointID) bool {
	return tag.Point <= watermark
}

// A structurally similar non-clock type: same field names, but type
// identity says it is none of clockcmp's business.
type scoreboard struct {
	Point   int
	Elapsed int
}

func notAClock(a, b scoreboard) bool {
	return a.Point < b.Point && a.Elapsed < b.Elapsed
}
