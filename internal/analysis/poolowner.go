package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolOwner enforces the single-owner contract of the configured pool
// APIs (Config.PoolAPIs) with a flow-sensitive dataflow pass over each
// function's CFG: an object returned by a pool's Get method is *owned*
// until it is handed to the pool's Put method, after which the local
// must not be used again (use-after-Put), must not be Put a second
// time (double-Put), and must not have been stored anywhere that
// outlives the release (reference retained past Put). The analysis is
// intraprocedural.
//
// Lattice per tracked local: Owned ⊔ Released = Maybe (released on
// some path), with an escape bit recording the first place a reference
// left the local. Passing an owned object to any call other than Put,
// returning it, sending it, or storing it into memory that is not a
// tracked local transfers ownership: the rule stops tracking rather
// than guessing (soundness caveat — a callee that stashes the pointer
// and a later local Put is not caught across the call).
var PoolOwner = &Analyzer{
	Name: "poolowner",
	Doc:  "pooled object used after Put, Put twice, or a reference retained past release",
	Run:  runPoolOwner,
}

// ownState is the per-variable lattice value.
type ownState uint8

const (
	ownOwned    ownState = iota // definitely live, owned by this function
	ownReleased                 // definitely returned to the pool
	ownMaybe                    // released on some path, live on another
)

// ownInfo is the fact for one tracked local. rep identifies the alias
// group: `u := t` copies t's info including rep, and every state
// mutation (Put, escape, kill) is applied to all members of the group
// so releasing through one name poisons the others.
type ownInfo struct {
	state     ownState
	rep       *types.Var // canonical variable of the alias group
	putAt     token.Pos  // first Put site (for released/maybe messages)
	escapedAt token.Pos  // first place a reference left the local, 0 = none
	reported  bool       // a finding was already emitted for this group
}

// ownFact maps tracked locals to their state. Facts are values: every
// transfer works on a copy.
type ownFact map[*types.Var]ownInfo

func (f ownFact) clone() ownFact {
	g := make(ownFact, len(f))
	for k, v := range f {
		g[k] = v
	}
	return g
}

func ownEqual(a, b ownFact) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok || va != vb {
			return false
		}
	}
	return true
}

func ownJoin(a, b ownFact) ownFact {
	out := make(ownFact, len(a))
	for k, va := range a {
		if vb, ok := b[k]; ok {
			out[k] = joinInfo(va, vb)
		} else {
			// Tracked on one path only (declared in a branch, or killed
			// by escape on the other): keep the tracked view but demote
			// a definite release to maybe — the other path never put it.
			if va.state == ownReleased {
				va.state = ownMaybe
			}
			out[k] = va
		}
	}
	for k, vb := range b {
		if _, ok := a[k]; !ok {
			if vb.state == ownReleased {
				vb.state = ownMaybe
			}
			out[k] = vb
		}
	}
	return out
}

// setInfo writes info to v and every other member of its alias group.
func setInfo(f ownFact, v *types.Var, info ownInfo) {
	f[v] = info
	if info.rep == nil {
		return
	}
	for w, wi := range f {
		if w != v && wi.rep == info.rep {
			f[w] = info
		}
	}
}

// killGroup stops tracking v and every alias of the same object.
func killGroup(f ownFact, v *types.Var) {
	info, ok := f[v]
	delete(f, v)
	if !ok || info.rep == nil {
		return
	}
	for w, wi := range f {
		if wi.rep == info.rep {
			delete(f, w)
		}
	}
}

func joinInfo(a, b ownInfo) ownInfo {
	out := a
	if b.state != a.state {
		out.state = ownMaybe
	}
	if out.putAt == token.NoPos {
		out.putAt = b.putAt
	}
	if out.escapedAt == token.NoPos {
		out.escapedAt = b.escapedAt
	}
	out.reported = a.reported || b.reported
	return out
}

func runPoolOwner(p *Pass) {
	if len(p.Cfg.PoolAPIs) == 0 {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil && !isPoolMethod(p, fn) {
					poolOwnerFunc(p, fn.Body)
				}
			case *ast.FuncLit:
				if fn.Body != nil {
					poolOwnerFunc(p, fn.Body)
				}
			}
			return true
		})
	}
}

// isPoolMethod reports whether fn is declared on a configured pool
// type: the pool's own Get/Put/free-list plumbing legitimately stores
// released objects and is exempt from its own contract.
func isPoolMethod(p *Pass, fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return false
	}
	t := p.TypeOf(fn.Recv.List[0].Type)
	if t == nil {
		return false
	}
	name := qualifiedTypeName(t)
	for _, api := range p.Cfg.PoolAPIs {
		if name == api.Type {
			return true
		}
	}
	return false
}

// qualifiedTypeName renders "pkgpath.Name" for (pointers to) named
// types, "" otherwise.
func qualifiedTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj() == nil || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}

// poolOwnerFunc analyzes one function body. Findings are reported
// during a final replay of the fixed-point facts so each is emitted
// once, at the first program point where it holds.
func poolOwnerFunc(p *Pass, body *ast.BlockStmt) {
	g := buildCFG(body)
	oa := &ownAnalysis{p: p}
	in := solveForward(g, flowProblem[ownFact]{
		entry: ownFact{},
		join:  ownJoin,
		equal: ownEqual,
		transfer: func(b *cfgBlock, f ownFact) ownFact {
			return oa.transferBlock(b, f, false)
		},
	})
	// Replay with reporting on: facts at block entry are final, so the
	// intra-block walk sees exactly the converged states.
	oa.report = true
	for _, b := range g.blocks {
		f, ok := in[b]
		if !ok {
			continue
		}
		oa.transferBlock(b, f, true)
	}
}

type ownAnalysis struct {
	p      *Pass
	report bool
}

func (oa *ownAnalysis) transferBlock(b *cfgBlock, f ownFact, report bool) ownFact {
	out := f.clone()
	saved := oa.report
	oa.report = report
	for _, n := range b.nodes {
		oa.transferNode(n, out)
	}
	oa.report = saved
	return out
}

func (oa *ownAnalysis) transferNode(n ast.Node, f ownFact) {
	switch x := n.(type) {
	case *ast.AssignStmt:
		oa.assign(x, f)
	case *ast.DeclStmt:
		oa.decl(x, f)
	case *ast.ExprStmt:
		if oa.putCall(x.X, f, false) {
			return
		}
		oa.checkUses(x.X, f)
	case *ast.DeferStmt:
		if x.Call != nil {
			if oa.putCall(x.Call, f, true) {
				return
			}
			for _, a := range x.Call.Args {
				oa.checkUses(a, f)
			}
			oa.checkUses(x.Call.Fun, f)
		}
	case *ast.GoStmt:
		if x.Call != nil {
			// Arguments evaluate now; a tracked pointer handed to a
			// goroutine escapes this owner's control entirely.
			for _, a := range x.Call.Args {
				oa.checkUses(a, f)
				oa.markEscapes(a, f)
			}
		}
	case *ast.SendStmt:
		oa.checkUses(x.Chan, f)
		oa.checkUses(x.Value, f)
		oa.markEscapes(x.Value, f)
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			oa.checkUses(r, f)
			// Returning an owned object transfers ownership to the
			// caller: stop tracking.
			oa.killIdent(r, f)
		}
	case *ast.IncDecStmt:
		oa.checkUses(x.X, f)
	case *ast.RangeStmt:
		oa.checkUses(x.X, f)
	case ast.Expr:
		oa.checkUses(x, f)
	case ast.Stmt:
		// Shallow leftovers (BadStmt, …): scan conservatively.
		ast.Inspect(x, func(m ast.Node) bool {
			if e, ok := m.(ast.Expr); ok {
				oa.checkUses(e, f)
				return false
			}
			return true
		})
	}
}

// assign handles x := pool.Get(), aliasing, and kills.
func (oa *ownAnalysis) assign(x *ast.AssignStmt, f ownFact) {
	// RHS uses are checked first (they evaluate before the store), but
	// skip the Get-call case where the RHS mentions no tracked var.
	for _, r := range x.Rhs {
		oa.checkUses(r, f)
	}
	if len(x.Lhs) == len(x.Rhs) {
		for i, lhs := range x.Lhs {
			oa.assignOne(lhs, x.Rhs[i], f)
		}
		return
	}
	// Multi-value RHS (call, map read): no Get tracking, kill the
	// targets and treat stored tracked values as escapes.
	for _, lhs := range x.Lhs {
		oa.storeTo(lhs, f)
	}
}

func (oa *ownAnalysis) assignOne(lhs, rhs ast.Expr, f ownFact) {
	v := oa.localVar(lhs)
	if v == nil {
		// Storing into a field/global/element: a tracked RHS escapes.
		oa.markEscapes(rhs, f)
		oa.storeTo(lhs, f)
		return
	}
	if getAPI := oa.getCall(rhs); getAPI != nil {
		f[v] = ownInfo{state: ownOwned, rep: v}
		return
	}
	if src := oa.localVar(rhs); src != nil {
		if info, ok := f[src]; ok {
			// Alias by copy: both names now refer to the same object.
			f[v] = info
			return
		}
	}
	delete(f, v) // overwritten with something untracked
}

// storeTo handles an lvalue that is not a plain tracked local.
func (oa *ownAnalysis) storeTo(lhs ast.Expr, f ownFact) {
	if v := oa.localVar(lhs); v != nil {
		delete(f, v)
		return
	}
	oa.checkUses(lhs, f)
}

func (oa *ownAnalysis) decl(x *ast.DeclStmt, f ownFact) {
	gd, ok := x.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, val := range vs.Values {
			oa.checkUses(val, f)
		}
		if len(vs.Names) == len(vs.Values) {
			for i, name := range vs.Names {
				if name == nil {
					continue
				}
				if v, ok := oa.p.Info.Defs[name].(*types.Var); ok && oa.getCall(vs.Values[i]) != nil {
					f[v] = ownInfo{state: ownOwned, rep: v}
				}
			}
		}
	}
}

// localVar resolves e to a local (non-field) variable, nil otherwise.
func (oa *ownAnalysis) localVar(e ast.Expr) *types.Var {
	id, ok := unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	var obj types.Object
	if d, ok := oa.p.Info.Defs[id]; ok {
		obj = d
	} else {
		obj = oa.p.Info.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	if v.Parent() != nil && v.Parent().Parent() == types.Universe {
		return nil // package-level
	}
	return v
}

// getCall returns the PoolAPI when e is a call to a configured Get
// method.
func (oa *ownAnalysis) getCall(e ast.Expr) *PoolAPI {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return nil
	}
	fn := calleeFunc(oa.p.Info, call)
	return oa.matchAPI(fn, false)
}

// matchAPI matches a callee against the configured pool APIs; put
// selects the Put (vs Get) method name.
func (oa *ownAnalysis) matchAPI(fn *types.Func, put bool) *PoolAPI {
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	recv := qualifiedTypeName(sig.Recv().Type())
	for i := range oa.p.Cfg.PoolAPIs {
		api := &oa.p.Cfg.PoolAPIs[i]
		if recv != api.Type {
			continue
		}
		if put && fn.Name() == api.Put && api.Put != "" {
			return api
		}
		if !put && fn.Name() == api.Get {
			return api
		}
	}
	return nil
}

// putCall handles a pool Put call; returns true when e was one.
// deferred Puts release at function exit: the state still flips (a
// second Put is a real double-Put) but use-after-Put is not reported
// for subsequent statements — that would flag the idiomatic
// `defer pool.Put(t); use(t)` shape, which is safe.
func (oa *ownAnalysis) putCall(e ast.Expr, f ownFact, deferred bool) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(oa.p.Info, call)
	api := oa.matchAPI(fn, true)
	if api == nil {
		return false
	}
	if len(call.Args) != 1 {
		return false
	}
	// The receiver expression may itself use tracked vars.
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		oa.checkUses(sel.X, f)
	}
	v := oa.localVar(call.Args[0])
	if v == nil {
		oa.checkUses(call.Args[0], f)
		return true
	}
	info, tracked := f[v]
	if !tracked {
		return true
	}
	switch info.state {
	case ownReleased:
		oa.reportOnce(&info, call.Pos(),
			"%s is put back to the pool twice (first Put at %s): double-Put corrupts the free list and hands one object to two owners",
			identName(call.Args[0]), oa.pos(info.putAt))
	case ownMaybe:
		oa.reportOnce(&info, call.Pos(),
			"%s may already be put back to the pool (Put on some path at %s): guard the second Put or restructure the ownership hand-off",
			identName(call.Args[0]), oa.pos(info.putAt))
	default:
		if info.escapedAt != token.NoPos {
			oa.reportOnce(&info, call.Pos(),
				"%s is put back to the pool but a reference escaped at %s: the escaped copy dangles once the pool reuses the object",
				identName(call.Args[0]), oa.pos(info.escapedAt))
		}
	}
	if info.state == ownOwned {
		info.putAt = call.Pos()
	}
	if !deferred || info.state != ownOwned {
		info.state = ownReleased
	} else {
		// Deferred release: keep Owned for the rest of the body but
		// remember the Put so a direct second Put reports.
		info.state = ownOwned
		info.putAt = call.Pos()
	}
	setInfo(f, v, info)
	return true
}

// checkUses reports any appearance of a released local inside e and
// marks owned locals passed to calls as escaping ownership (the callee
// may retain them, so tracking stops being definite).
func (oa *ownAnalysis) checkUses(e ast.Expr, f ownFact) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			// A closure capturing a tracked local is an escape: the
			// body runs at another time, possibly after Put.
			oa.captureEscapes(x, f)
			return false
		case *ast.CallExpr:
			switch oa.builtinName(x) {
			case "append":
				// append(list, t) stores the reference but leaves the
				// caller the owner: an escape, and a later Put reports
				// the retained reference.
				for _, a := range x.Args {
					oa.markEscapes(a, f)
				}
			case "len", "cap", "delete", "print", "println":
				// Inspect-only builtins: no escape, no ownership move.
			default:
				// A tracked pointer handed to any other call transfers
				// ownership out of this function's view.
				for _, a := range x.Args {
					oa.markEscapeKill(a, f)
				}
			}
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					oa.markEscapes(kv.Value, f)
				} else {
					oa.markEscapes(el, f)
				}
			}
		case *ast.Ident:
			oa.useIdent(x, f)
		}
		return true
	})
}

// useIdent reports a read of a released/maybe-released local.
func (oa *ownAnalysis) useIdent(id *ast.Ident, f ownFact) {
	v, ok := oa.p.Info.Uses[id].(*types.Var)
	if !ok {
		return
	}
	info, tracked := f[v]
	if !tracked {
		return
	}
	switch info.state {
	case ownReleased:
		oa.reportOnce(&info, id.Pos(),
			"%s is used after being put back to the pool (Put at %s): the pool may already have handed it to another owner",
			id.Name, oa.pos(info.putAt))
		setInfo(f, v, info)
	case ownMaybe:
		oa.reportOnce(&info, id.Pos(),
			"%s may be used after being put back to the pool (Put on some path at %s): the release and the use race for the object",
			id.Name, oa.pos(info.putAt))
		setInfo(f, v, info)
	}
}

// markEscapes records that a reference to a still-owned tracked local
// left the function's hands (store, send, composite, goroutine).
func (oa *ownAnalysis) markEscapes(e ast.Expr, f ownFact) {
	v := oa.localVar(e)
	if v == nil {
		return
	}
	if info, ok := f[v]; ok && info.state == ownOwned && info.escapedAt == token.NoPos {
		info.escapedAt = e.Pos()
		setInfo(f, v, info)
	}
}

// markEscapeKill handles a tracked local passed to an arbitrary call:
// ownership may transfer to the callee (it may Put, retain, or forward
// the object), so local tracking ends at the call — the documented
// intraprocedural soundness caveat: a callee that stashes the pointer
// followed by a local Put is not caught across the call boundary.
func (oa *ownAnalysis) markEscapeKill(e ast.Expr, f ownFact) {
	v := oa.localVar(e)
	if v == nil {
		return
	}
	if info, ok := f[v]; ok && info.state == ownOwned {
		killGroup(f, v)
	}
}

// builtinName returns the name of the builtin a call invokes ("" for
// ordinary calls).
func (oa *ownAnalysis) builtinName(call *ast.CallExpr) string {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if _, isBuiltin := oa.p.Info.Uses[id].(*types.Builtin); isBuiltin {
		return id.Name
	}
	return ""
}

// captureEscapes scans a func literal for captured tracked locals.
func (oa *ownAnalysis) captureEscapes(fl *ast.FuncLit, f ownFact) {
	if fl.Body == nil {
		return
	}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := oa.p.Info.Uses[id].(*types.Var); ok {
				if info, tracked := f[v]; tracked {
					switch info.state {
					case ownReleased, ownMaybe:
						oa.useIdent(id, f)
					default:
						if info.escapedAt == token.NoPos {
							info.escapedAt = id.Pos()
							setInfo(f, v, info)
						}
					}
				}
			}
		}
		return true
	})
}

// killIdent stops tracking the local named by e and its aliases
// (ownership transferred wholesale, e.g. by a return).
func (oa *ownAnalysis) killIdent(e ast.Expr, f ownFact) {
	if v := oa.localVar(e); v != nil {
		killGroup(f, v)
	}
}

// reportOnce emits a finding unless this local already produced one
// (the fixed-point replay visits joins; one message per defect reads
// better than one per path).
func (oa *ownAnalysis) reportOnce(info *ownInfo, pos token.Pos, format string, args ...any) {
	if info.reported || !oa.report {
		info.reported = true
		return
	}
	info.reported = true
	oa.p.Reportf(pos, "poolowner", format, args...)
}

func (oa *ownAnalysis) pos(p token.Pos) string {
	if p == token.NoPos {
		return "?"
	}
	pos := oa.p.Fset.Position(p)
	return shortBase(pos.Filename) + ":" + itoa(pos.Line)
}

func identName(e ast.Expr) string {
	if id, ok := unparen(e).(*ast.Ident); ok {
		return id.Name
	}
	return exprString(e)
}

func shortBase(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '/' || name[i] == '\\' {
			return name[i+1:]
		}
	}
	return name
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
