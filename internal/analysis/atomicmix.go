package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// AtomicMix forbids mixing sync/atomic and plain accesses to one
// variable. A field updated with atomic.AddInt64 in one place and read
// with a bare load in another is a data race the race detector only
// catches when the schedule cooperates; in DBO's shard counters and
// metrics registry such a race silently corrupts the very numbers the
// evaluation reports. The safe shapes are: every access atomic, or the
// field typed atomic.Int64/atomic.Bool/… so the compiler enforces it —
// which is why the rule is module-level: it keys on the *object*
// identity of the variable, so a field accessed atomically in
// internal/core and plainly in internal/metrics is still caught.
var AtomicMix = &ModuleAnalyzer{
	Name: "atomicmix",
	Doc:  "variable accessed via sync/atomic in one place and plainly in another",
	Run:  runAtomicMix,
}

// atomicPtrFns match the sync/atomic functions whose first argument is
// the address of the shared variable.
func isAtomicPtrFn(name string) bool {
	for _, pre := range []string{"Load", "Store", "Add", "Swap", "CompareAndSwap", "And", "Or"} {
		if strings.HasPrefix(name, pre) {
			return true
		}
	}
	return false
}

func runAtomicMix(mp *ModulePass) {
	m := mp.Mod

	// Pass 1: every field or package-level variable whose address is
	// taken by a sync/atomic call, anywhere in the module. The specific
	// identifiers inside those calls are remembered so pass 2 can skip
	// them.
	atomicAt := make(map[types.Object]token.Pos) // object → first atomic site
	inAtomic := make(map[*ast.Ident]bool)        // identifiers used *as* the atomic operand
	forEachFile(m, func(pkg *Package, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := calleeFunc(m.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || !isAtomicPtrFn(fn.Name()) {
				return true
			}
			ue, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
			if !ok || ue.Op != token.AND {
				return true
			}
			id := baseIdent(ue.X)
			if id == nil {
				return true
			}
			obj := m.Info.Uses[id]
			v, ok := obj.(*types.Var)
			if !ok || !sharedVar(v) {
				return true
			}
			if _, seen := atomicAt[v]; !seen {
				atomicAt[v] = call.Pos()
			}
			inAtomic[id] = true
			return true
		})
	})
	if len(atomicAt) == 0 {
		return
	}

	// Pass 2: any other mention of those objects is a plain access.
	forEachFile(m, func(pkg *Package, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || inAtomic[id] {
				return true
			}
			obj := m.Info.Uses[id]
			if obj == nil {
				return true
			}
			first, hot := atomicAt[obj]
			if !hot {
				return true
			}
			at := m.Fset.Position(first)
			mp.Reportf(pkg.Path, id.Pos(), "atomicmix",
				"%s is accessed via sync/atomic (first at %s:%d) but read/written plainly here: mixing atomic and plain access is a data race — use sync/atomic for every access, or retype the field as atomic.Int64/atomic.Bool",
				id.Name, filepath.Base(at.Filename), at.Line)
			return true
		})
	})
}

// sharedVar reports whether v is the kind of variable the rule guards:
// a struct field or a package-level variable. Locals are skipped — a
// local copied out of an atomic word is a different (and much rarer)
// bug shape, and flagging it would punish the idiomatic
// snapshot-then-use pattern.
func sharedVar(v *types.Var) bool {
	if v.IsField() {
		return true
	}
	return v.Parent() != nil && v.Parent().Parent() == types.Universe
}

// baseIdent returns the identifier naming the variable an expression
// like x, s.x, s.inner.x, arr[i].x addresses (nil when it is not that
// shape).
func baseIdent(e ast.Expr) *ast.Ident {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x
	case *ast.SelectorExpr:
		return x.Sel
	case *ast.IndexExpr:
		return baseIdent(x.X)
	case *ast.StarExpr:
		return baseIdent(x.X)
	}
	return nil
}

// forEachFile visits every file of the module in package order.
func forEachFile(m *Module, fn func(*Package, *ast.File)) {
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			fn(pkg, f)
		}
	}
}
