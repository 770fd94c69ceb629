package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// CallGraph is a static call graph over the module's declared functions
// and methods. Direct calls resolve through types.Info; a call through
// an interface method fans out to every module method that implements
// the interface (method-set dispatch). Calls through func values and
// into packages outside the module have no edges.
//
// Each node also records the function's *direct* blocking operations
// (channel send/receive, blocking select, range over a channel,
// time.Sleep, sync.(*WaitGroup/*Cond).Wait). go-statement and
// func-literal subtrees are excluded: work launched there runs outside
// the caller's critical section.
type CallGraph struct {
	nodes map[*types.Func]*FuncNode
}

// FuncNode is one declared function with a body.
type FuncNode struct {
	Obj    *types.Func
	Decl   *ast.FuncDecl
	Calls  []CallEdge  // static callees, in source order, deduped
	Blocks []BlockFact // direct blocking operations, in source order
}

// CallEdge is one static call site.
type CallEdge struct {
	Callee *types.Func
	Pos    token.Pos
}

// BlockFact is one direct blocking operation.
type BlockFact struct {
	What string // "channel send", "select", "time.Sleep", ...
	Pos  token.Pos
}

// Node returns the graph node for fn, or nil (external function,
// interface method, or no body).
func (g *CallGraph) Node(fn *types.Func) *FuncNode {
	if g == nil {
		return nil
	}
	return g.nodes[fn]
}

// ChainStep is one hop of a blocking chain: the function entered and,
// on the final step, the blocking fact reached inside it.
type ChainStep struct {
	Fn   *types.Func
	Fact *BlockFact // non-nil only on the last step
}

// BlockingChain breadth-first-searches from callee for the shortest
// call path (≤ depth edges into the graph, callee included) that
// reaches a direct blocking operation. Interface-method callees fan out
// to their module implementers. Returns nil when nothing blocking is
// reachable within the bound.
func (g *CallGraph) BlockingChain(callee *types.Func, depth int) []ChainStep {
	if g == nil || callee == nil || depth <= 0 {
		return nil
	}
	type item struct {
		fn   *types.Func
		path []ChainStep
	}
	start := g.resolve(callee)
	if len(start) == 0 {
		return nil
	}
	var queue []item
	visited := make(map[*types.Func]bool)
	for _, fn := range start {
		if !visited[fn] {
			visited[fn] = true
			queue = append(queue, item{fn, []ChainStep{{Fn: fn}}})
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		node := g.nodes[cur.fn]
		if node == nil {
			continue
		}
		if len(node.Blocks) > 0 {
			chain := append([]ChainStep(nil), cur.path...)
			chain[len(chain)-1].Fact = &node.Blocks[0]
			return chain
		}
		if len(cur.path) >= depth {
			continue
		}
		for _, e := range node.Calls {
			for _, fn := range g.resolve(e.Callee) {
				if visited[fn] {
					continue
				}
				visited[fn] = true
				path := append(append([]ChainStep(nil), cur.path...), ChainStep{Fn: fn})
				queue = append(queue, item{fn, path})
			}
		}
	}
	return nil
}

// resolve maps a callee to the graph nodes it may enter: itself for a
// concrete function, every module implementer for an interface method.
func (g *CallGraph) resolve(fn *types.Func) []*types.Func {
	if fn == nil {
		return nil
	}
	if _, ok := g.nodes[fn]; ok {
		return []*types.Func{fn}
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var impls []*types.Func
	for cand := range g.nodes {
		if cand.Name() != fn.Name() {
			continue
		}
		csig, ok := cand.Type().(*types.Signature)
		if !ok || csig.Recv() == nil {
			continue
		}
		rt := csig.Recv().Type()
		if types.Implements(rt, iface) || types.Implements(types.NewPointer(rt), iface) {
			impls = append(impls, cand)
		}
	}
	sort.Slice(impls, func(i, j int) bool { return impls[i].Pos() < impls[j].Pos() })
	return impls
}

// FuncDisplay renders fn for diagnostics: "Name" or "(Recv).Name".
func FuncDisplay(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		s := types.TypeString(t, func(p *types.Package) string { return "" })
		return "(" + strings.TrimPrefix(s, "*") + ")." + fn.Name()
	}
	return fn.Name()
}

// buildCallGraph walks every file once.
func buildCallGraph(m *Module) *CallGraph {
	g := &CallGraph{nodes: make(map[*types.Func]*FuncNode)}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || fd.Name == nil {
					continue
				}
				obj, _ := m.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				node := &FuncNode{Obj: obj, Decl: fd}
				collectFuncFacts(m.Info, fd.Body, node)
				g.nodes[obj] = node
			}
		}
	}
	return g
}

// collectFuncFacts records body's direct blocking facts and call edges,
// skipping go-statement and func-literal subtrees.
func collectFuncFacts(info *types.Info, body *ast.BlockStmt, node *FuncNode) {
	seen := make(map[*types.Func]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			// Argument expressions evaluate now; the call itself does not.
			if x.Call != nil {
				for _, a := range x.Call.Args {
					collectExprFacts(info, a, node, seen)
				}
			}
			return false
		case *ast.SendStmt:
			node.Blocks = append(node.Blocks, BlockFact{"channel send", x.Arrow})
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				node.Blocks = append(node.Blocks, BlockFact{"channel receive", x.OpPos})
			}
		case *ast.SelectStmt:
			if !selectHasDefault(x) {
				node.Blocks = append(node.Blocks, BlockFact{"select", x.Select})
			}
			// Case bodies still execute in this critical section once a
			// communication fires; keep walking them.
		case *ast.RangeStmt:
			if t := info.TypeOf(x.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					node.Blocks = append(node.Blocks, BlockFact{"range over channel", x.For})
				}
			}
		case *ast.CallExpr:
			addCallFact(info, x, node, seen)
		}
		return true
	})
}

func collectExprFacts(info *types.Info, e ast.Expr, node *FuncNode, seen map[*types.Func]bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				node.Blocks = append(node.Blocks, BlockFact{"channel receive", x.OpPos})
			}
		case *ast.CallExpr:
			addCallFact(info, x, node, seen)
		}
		return true
	})
}

func addCallFact(info *types.Info, call *ast.CallExpr, node *FuncNode, seen map[*types.Func]bool) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return
	}
	if fact := blockingStdCall(fn); fact != "" {
		node.Blocks = append(node.Blocks, BlockFact{fact, call.Pos()})
		return
	}
	if !seen[fn] {
		seen[fn] = true
		node.Calls = append(node.Calls, CallEdge{Callee: fn, Pos: call.Pos()})
	}
}

// calleeFunc resolves a call expression to the declared function or
// method it statically invokes, or nil (func value, builtin,
// conversion, unresolved).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[f]
	case *ast.SelectorExpr:
		if f.Sel != nil {
			obj = info.Uses[f.Sel]
		}
	}
	fn, _ := obj.(*types.Func)
	if fn != nil {
		// A method of an instantiated generic type (or an instantiated
		// generic function) is a distinct object; the graph's node is
		// the generic declaration it came from.
		fn = fn.Origin()
	}
	return fn
}

// blockingStdCall classifies well-known blocking standard-library
// calls: time.Sleep and the Wait methods of package sync.
func blockingStdCall(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	switch {
	case pkg.Path() == "time" && fn.Name() == "Sleep":
		return "time.Sleep"
	case pkg.Path() == "sync" && fn.Name() == "Wait":
		return "sync." + recvTypeName(fn) + ".Wait"
	}
	return ""
}

func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "?"
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return "?"
}

func selectHasDefault(s *ast.SelectStmt) bool {
	if s.Body == nil {
		return false
	}
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
