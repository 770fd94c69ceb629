package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ClockCmp forbids ad-hoc ordering of delivery-clock tuples.
//
// The delivery clock ⟨ld, now − D(ld)⟩ (§4.1.1) is ordered
// lexicographically; comparing one field in isolation, or both fields
// with hand-rolled operators, is how subtle fairness bugs are born
// (Elapsed values from different participants are only comparable once
// the Point components tie). Only internal/market (the canonical
// Compare/Less/AtLeast) and internal/clock may touch the fields
// directly.
//
// The rule matches by type identity — the operand must actually select
// a field of market.DeliveryClock — and it distinguishes the two
// comparison shapes: ordering one clock's field against *another
// clock's* field (hand-rolled lexicographic order — always flagged),
// versus comparing a clock's Point against a plain PointID watermark
// (the Appendix E egress gate — legitimate, since point ids are globally
// ordered on their own). A lone Elapsed comparison is always flagged:
// elapsed intervals from different participants are incomparable until
// their Points tie.
var ClockCmp = &Analyzer{
	Name: "clockcmp",
	Doc:  "ad-hoc </> comparisons on DeliveryClock fields outside the canonical comparator",
	Run:  runClockCmp,
}

// clockFields are DeliveryClock's components.
var clockFields = map[string]bool{"Point": true, "Elapsed": true}

func runClockCmp(p *Pass) {
	if underAny(p.PkgPath, p.Cfg.ClockCmpAllow) {
		return
	}
	cmpOps := map[token.Token]bool{token.LSS: true, token.GTR: true, token.LEQ: true, token.GEQ: true}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if be, ok := n.(*ast.BinaryExpr); ok && cmpOps[be.Op] {
				checkClockCmp(p, be)
			}
			return true
		})
	}
}

// checkClockCmp applies the rule to one comparison.
func checkClockCmp(p *Pass, be *ast.BinaryExpr) {
	lf := deliveryClockField(p, be.X)
	rf := deliveryClockField(p, be.Y)
	switch {
	case lf == "" && rf == "":
		return
	case lf != "" && rf != "":
		p.Reportf(be.Pos(), "clockcmp",
			"hand-rolled %s ordering of DeliveryClock fields (%s vs %s): order delivery clocks with the canonical Compare/Less/AtLeast in %s (§4.1.1)",
			be.Op, lf, rf, strings.Join(p.Cfg.ClockCmpAllow, "/"))
	case lf == "Elapsed" || rf == "Elapsed":
		p.Reportf(be.Pos(), "clockcmp",
			"ad-hoc %s comparison on DeliveryClock.Elapsed: elapsed intervals from different participants are only comparable when Points tie — use the canonical comparator in %s (§4.1.1)",
			be.Op, strings.Join(p.Cfg.ClockCmpAllow, "/"))
	}
	// One clock's Point against a plain scalar (a PointID watermark) is
	// the Appendix E gate shape: point ids are globally ordered, so this
	// is legitimate and deliberately not flagged.
}

// deliveryClockField reports which DeliveryClock field e selects, or "".
func deliveryClockField(p *Pass, e ast.Expr) string {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || sel.Sel == nil || !clockFields[sel.Sel.Name] {
		return ""
	}
	t := p.TypeOf(sel.X)
	if t == nil {
		return ""
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
		return ""
	}
	if named.Obj().Name() != "DeliveryClock" || !strings.HasSuffix(named.Obj().Pkg().Path(), "internal/market") {
		return ""
	}
	return sel.Sel.Name
}
