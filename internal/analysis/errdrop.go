package analysis

import (
	"go/ast"
	"go/types"
)

// ErrDrop forbids silently discarding an error on the order hot path.
//
// DBO's correctness story leans on errors being *handled*: a Submit
// whose error is dropped strands the order (the PR-2 Egress.Submit bug
// shape), a Release error swallowed in internal/core silently breaks
// the delivery-clock watermark. The rule fires in ErrDropScope packages
// only: a call used as a bare statement — or launched via go/defer —
// whose result type is error (or a tuple containing error) is flagged,
// as is assigning an error value to the blank identifier. fmt printers
// are exempt: their error is famously useless.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "call result containing an error discarded on a hot path",
	Run:  runErrDrop,
}

func runErrDrop(p *Pass) {
	if !underAny(p.PkgPath, p.Cfg.ErrDropScope) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				checkErrDropCall(p, st.X, "")
			case *ast.DeferStmt:
				checkErrDropCall(p, st.Call, "defer ")
			case *ast.GoStmt:
				checkErrDropCall(p, st.Call, "go ")
			case *ast.AssignStmt:
				checkErrDropAssign(p, st)
			}
			return true
		})
	}
}

// checkErrDropCall flags a call whose ignored result carries an error.
func checkErrDropCall(p *Pass, e ast.Expr, how string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	t := p.TypeOf(call)
	if t == nil || !typeCarriesError(t) {
		return
	}
	if fn := calleeFunc(p.Info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		return
	}
	p.Reportf(call.Pos(), "errdrop",
		"%s%s returns an error that is discarded: on %s hot paths a dropped error strands the order (Appendix E) — handle it, or assign it with an explicit //dbo:vet-ignore errdrop reason",
		how, callDisplay(call), p.PkgPath)
}

// checkErrDropAssign flags `_ = f()` / `v, _ := g()` where the blanked
// value is an error.
func checkErrDropAssign(p *Pass, st *ast.AssignStmt) {
	// Single call on the RHS feeding multiple LHS slots (v, _ := g()).
	if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
		call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		tup, ok := p.TypeOf(call).(*types.Tuple)
		if !ok || tup.Len() != len(st.Lhs) {
			return
		}
		if fn := calleeFunc(p.Info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			return
		}
		for i, lhs := range st.Lhs {
			if isBlank(lhs) && isErrorType(tup.At(i).Type()) {
				p.Reportf(st.Pos(), "errdrop",
					"error result of %s assigned to _: on %s hot paths a dropped error strands the order (Appendix E) — handle it, or add an explicit //dbo:vet-ignore errdrop reason",
					callDisplay(call), p.PkgPath)
				return
			}
		}
		return
	}
	// Parallel assignment: _ = expr where expr is an error.
	for i := range st.Lhs {
		if i >= len(st.Rhs) {
			break
		}
		if isBlank(st.Lhs[i]) && isErrorType(p.TypeOf(st.Rhs[i])) {
			p.Reportf(st.Pos(), "errdrop",
				"error value assigned to _: on %s hot paths a dropped error strands the order (Appendix E) — handle it, or add an explicit //dbo:vet-ignore errdrop reason",
				p.PkgPath)
			return
		}
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// typeCarriesError reports whether t is error or a tuple with an error
// component.
func typeCarriesError(t types.Type) bool {
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if isErrorType(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// callDisplay renders a call target for a diagnostic ("eg.Submit",
// "flush").
func callDisplay(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "call"
}
