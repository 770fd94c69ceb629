package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// LockHeld flags mutexes held across blocking operations or user
// callbacks — the exact shape of the metrics.Registry.Snapshot deadlock
// fixed in PR 1 (callbacks invoked under the registry lock re-entered
// the registry and self-deadlocked).
//
// Within one function body, between x.Lock()/x.RLock() and the matching
// x.Unlock()/x.RUnlock() (or to the end of the body after a deferred
// unlock), the rule flags: channel sends, channel receives, select
// statements, time.Sleep and the Wait methods of package sync, calls
// through func-typed variables and fields, and — interprocedurally —
// calls to a statically resolved function (or interface method, through
// the module's method sets) when any transitive callee, up to
// lockHeldDepth call-graph edges, performs a blocking operation. That
// diagnostic prints the call chain plus the blocking reason.
var LockHeld = &Analyzer{
	Name: "lockheld",
	Doc:  "mutex held across a (transitively) blocking operation or user callback",
	Run:  runLockHeld,
}

// lockHeldDepth bounds the interprocedural search: a call made under a
// lock is chased through at most this many call-graph edges. Deep
// enough for the repo's layering (exported API → helper → emit hook),
// shallow enough that one diagnostic stays explainable.
const lockHeldDepth = 4

func runLockHeld(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body != nil {
				s := &lockScan{p: p, held: make(map[string]bool), deferred: make(map[string]bool)}
				s.scan(body.List)
			}
			return true
		})
	}
}

// lockScan walks one function body tracking held locks. It is
// flow-insensitive across branches (a Lock in an if-arm counts as held
// afterwards) — conservative, and the repo's critical sections are all
// straight-line.
type lockScan struct {
	p        *Pass
	held     map[string]bool // "r.mu" → explicitly locked
	deferred map[string]bool // "r.mu" → unlocked only at return
}

func (s *lockScan) anyHeld() bool { return len(s.held)+len(s.deferred) > 0 }

func (s *lockScan) heldNames() string {
	var names []string
	for n := range s.held {
		names = append(names, n)
	}
	for n := range s.deferred {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// lockCall classifies expr as a Lock/Unlock call and returns the
// rendered receiver.
func lockCall(expr ast.Expr) (recv string, locks, unlocks bool) {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return "", false, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel == nil {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		return exprString(sel.X), true, false
	case "Unlock", "RUnlock":
		return exprString(sel.X), false, true
	}
	return "", false, false
}

// scan processes a statement list sequentially, updating lock state and
// reporting blocking work performed while a lock is held.
func (s *lockScan) scan(stmts []ast.Stmt) {
	for _, st := range stmts {
		s.scanStmt(st)
	}
}

func (s *lockScan) scanStmt(st ast.Stmt) {
	switch x := st.(type) {
	case nil:
	case *ast.ExprStmt:
		if recv, locks, unlocks := lockCall(x.X); locks {
			s.held[recv] = true
			return
		} else if unlocks {
			delete(s.held, recv)
			delete(s.deferred, recv)
			return
		}
		s.checkExpr(x.X)
	case *ast.DeferStmt:
		if x.Call != nil {
			if recv, _, unlocks := lockCall(x.Call); unlocks {
				s.deferred[recv] = true
				return
			}
			for _, a := range x.Call.Args {
				s.checkExpr(a)
			}
		}
	case *ast.GoStmt:
		// Launching a goroutine does not block; its body runs without
		// this function's critical section, so only argument
		// evaluation is checked.
		if x.Call != nil {
			for _, a := range x.Call.Args {
				s.checkExpr(a)
			}
		}
	case *ast.SendStmt:
		if s.anyHeld() {
			s.p.Reportf(x.Pos(), "lockheld",
				"channel send while holding %s: a blocked receiver deadlocks every other caller of this lock — send after Unlock", s.heldNames())
		}
		s.checkExpr(x.Value)
	case *ast.SelectStmt:
		if s.anyHeld() {
			s.p.Reportf(x.Pos(), "lockheld",
				"select while holding %s: channel waits under a lock serialize and can deadlock — wait after Unlock", s.heldNames())
		}
		if x.Body != nil {
			s.scan(x.Body.List)
		}
	case *ast.AssignStmt:
		for _, e := range x.Rhs {
			s.checkExpr(e)
		}
		for _, e := range x.Lhs {
			s.checkExpr(e)
		}
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						s.checkExpr(v)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range x.Results {
			s.checkExpr(e)
		}
	case *ast.BlockStmt:
		s.scan(x.List)
	case *ast.IfStmt:
		s.scanStmt(x.Init)
		s.checkExpr(x.Cond)
		if x.Body != nil {
			s.scan(x.Body.List)
		}
		s.scanStmt(x.Else)
	case *ast.ForStmt:
		s.scanStmt(x.Init)
		s.checkExpr(x.Cond)
		if x.Body != nil {
			s.scan(x.Body.List)
		}
		s.scanStmt(x.Post)
	case *ast.RangeStmt:
		s.checkExpr(x.X)
		if x.Body != nil {
			s.scan(x.Body.List)
		}
	case *ast.SwitchStmt:
		s.scanStmt(x.Init)
		s.checkExpr(x.Tag)
		s.scanCases(x.Body)
	case *ast.TypeSwitchStmt:
		s.scanStmt(x.Init)
		s.scanStmt(x.Assign)
		s.scanCases(x.Body)
	case *ast.LabeledStmt:
		s.scanStmt(x.Stmt)
	}
}

func (s *lockScan) scanCases(body *ast.BlockStmt) {
	if body == nil {
		return
	}
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			for _, e := range cc.List {
				s.checkExpr(e)
			}
			s.scan(cc.Body)
		}
	}
}

// checkExpr reports blocking work inside an expression evaluated while
// a lock is held. It does not descend into func literals — their bodies
// run later, outside this critical section (and are scanned on their
// own).
func (s *lockScan) checkExpr(e ast.Expr) {
	if e == nil || !s.anyHeld() {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				s.p.Reportf(x.Pos(), "lockheld",
					"channel receive while holding %s: blocks every other caller of this lock — receive after Unlock", s.heldNames())
			}
		case *ast.CallExpr:
			s.checkCall(x)
		}
		return true
	})
}

// checkCall resolves the callee of a call made under a lock. A declared
// function is chased through the call graph; one with no reachable
// blocking operation (or an external one the graph cannot see into) is
// fine, whatever it is named. Immediately invoked literals and indexed
// collections are not resolved.
func (s *lockScan) checkCall(call *ast.CallExpr) {
	var obj types.Object
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = s.p.UseOf(f)
	case *ast.SelectorExpr:
		obj = s.p.UseOf(f.Sel)
	}
	switch o := obj.(type) {
	case *types.Func:
		if fact := blockingStdCall(o); fact != "" {
			s.p.Reportf(call.Pos(), "lockheld",
				"%s while holding %s: blocking under a lock stalls or deadlocks every other caller — move it after Unlock", fact, s.heldNames())
		} else if chain := s.p.Graph.BlockingChain(o, lockHeldDepth); chain != nil {
			s.p.Reportf(call.Pos(), "lockheld",
				"call to %s while holding %s: %s — move the call after Unlock or restructure the callee",
				FuncDisplay(o), s.heldNames(), renderChain(s.p, chain))
		}
	case *types.Var:
		if _, isFunc := o.Type().Underlying().(*types.Signature); isFunc {
			kind := "func value"
			if o.IsField() {
				kind = "func-typed field"
			}
			s.p.Reportf(call.Pos(), "lockheld",
				"call through %s %s while holding %s: a user callback may block or re-enter the lock (the Registry.Snapshot deadlock shape) — invoke after Unlock",
				kind, exprString(call.Fun), s.heldNames())
		}
	}
}

// renderChain formats a blocking chain: "its callee chain a → b reaches
// a channel send at file:line".
func renderChain(p *Pass, chain []ChainStep) string {
	names := make([]string, len(chain))
	for i, st := range chain {
		names[i] = FuncDisplay(st.Fn)
	}
	last := chain[len(chain)-1]
	pos := p.Fset.Position(last.Fact.Pos)
	return fmt.Sprintf("its callee chain %s reaches a blocking %s at %s:%d",
		strings.Join(names, " → "), last.Fact.What, filepath.Base(pos.Filename), pos.Line)
}
