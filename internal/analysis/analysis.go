// Package analysis is dbo-vet's stdlib-only static-analysis framework:
// a module loader over go/parser + go/types (module imports from source,
// everything else from the compiler's export data; no x/tools), a static
// call graph, a CFG + forward-dataflow engine, and the //dbo:vet-ignore
// escape hatch.
//
// DBO's correctness leans on invariants the Go compiler cannot check:
//
//   - the sim/check pipeline never reads the wall clock, so seeded
//     replays stay deterministic (rule walltime), and nothing reachable
//     from it iterates a map, races a select or draws from the global
//     random source (rule detsource);
//   - delivery-clock tuples (§4.1.1) are ordered only through the
//     canonical comparator in internal/market (rule clockcmp);
//   - no mutex is held across a blocking operation or a user callback,
//     directly or through the call graph — the metrics.Registry.Snapshot
//     deadlock shape fixed in PR 1 (rule lockheld) — and no two mutexes
//     are taken in opposite orders (rule lockorder);
//   - time quantities are typed sim.Time / time.Duration, never raw
//     int64 (rule naketime);
//   - hot-path packages never drop an error result (rule errdrop) and
//     never mix atomic and plain access to one word (rule atomicmix);
//   - a pooled object has one owner between Get and Put (rule
//     poolowner), and the pinned hot-path roots reach no allocation site
//     (rule allocfree).
//
// There is one mode: every package of the module type-checks, or the
// load fails and names the package and its first error. A deliberate
// false positive is silenced in place with
//
//	//dbo:vet-ignore <rule> <reason>
//
// which suppresses diagnostics of <rule> on its own line (when it
// trails code) or on the line after a run of standalone directives. A
// directive that suppresses nothing is itself a finding, so stale
// annotations cannot accumulate.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the rule that fired, and a
// human-readable message. The driver renders it as
// "file:line:col: [rule] message".
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String formats the diagnostic the way cmd/dbo-vet prints it.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
}

// Pass carries one type-checked package through every analyzer.
type Pass struct {
	Fset    *token.FileSet
	PkgPath string // module-relative dir path, "/"-separated ("internal/core")
	Files   []*ast.File
	Cfg     *Config
	Info    *types.Info // the module's type information
	Graph   *CallGraph  // the module's call graph

	diags *[]Diagnostic
}

// TypeOf returns the type of e.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// UseOf resolves an identifier to the object it refers to.
func (p *Pass) UseOf(id *ast.Ident) types.Object { return p.Info.Uses[id] }

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, rule, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:  p.Fset.Position(pos),
		Rule: rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named rule.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// ModulePass carries the whole module through a module-level analyzer.
// Findings are reported only into the selected packages.
type ModulePass struct {
	Mod      *Module
	Cfg      *Config
	Selected map[string]bool // rel paths whose findings are reported

	diags *[]Diagnostic
}

// Reportf records a module-level finding at pos when the file's
// package is selected.
func (p *ModulePass) Reportf(pkgRel string, pos token.Pos, rule, format string, args ...any) {
	if !p.Selected[pkgRel] {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:  p.Mod.Fset.Position(pos),
		Rule: rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// ModuleAnalyzer is a rule that needs the whole module at once (e.g.
// atomicmix, whose "accessed atomically anywhere" predicate spans
// packages).
type ModuleAnalyzer struct {
	Name string
	Doc  string
	Run  func(*ModulePass)
}

// All returns every per-package analyzer, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{WallTime, LockHeld, ClockCmp, NakeTime, ErrDrop, PoolOwner}
}

// AllModule returns every module-level analyzer.
func AllModule() []*ModuleAnalyzer {
	return []*ModuleAnalyzer{AtomicMix, AllocFree, LockOrder, DetSource}
}

// RuleNames returns the set of valid rule names (used to validate
// ignore directives).
func RuleNames() map[string]bool {
	m := make(map[string]bool)
	for _, a := range All() {
		m[a.Name] = true
	}
	for _, a := range AllModule() {
		m[a.Name] = true
	}
	return m
}

// Run analyzes every package selected by patterns (default "./..."),
// runs the module-level analyzers, applies the ignore filter, and
// returns the findings sorted by position then rule.
func (m *Module) Run(cfg *Config, patterns []string) []Diagnostic {
	if cfg == nil {
		cfg = Default()
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var diags []Diagnostic
	var dirs []*directive
	selected := make(map[string]bool)
	for _, pkg := range m.Pkgs {
		if !matchesAny(pkg.Path, patterns) {
			continue
		}
		selected[pkg.Path] = true
		pass := &Pass{
			Fset:    pkg.Fset,
			PkgPath: pkg.Path,
			Files:   pkg.Files,
			Cfg:     cfg,
			Info:    m.Info,
			Graph:   m.Graph,
			diags:   &diags,
		}
		for _, a := range All() {
			if cfg.ruleEnabled(a.Name) {
				a.Run(pass)
			}
		}
		dirs = append(dirs, collectDirectives(pkg)...)
	}
	mp := &ModulePass{Mod: m, Cfg: cfg, Selected: selected, diags: &diags}
	for _, a := range AllModule() {
		if cfg.ruleEnabled(a.Name) {
			a.Run(mp)
		}
	}
	diags = applyDirectives(cfg, dirs, diags)
	SortDiagnostics(diags)
	return diags
}

// SortDiagnostics orders findings by file, line, column, rule, message.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}

// underAny reports whether path equals one of the prefixes or sits in a
// subdirectory of one ("internal/core" matches "internal/core" and
// "internal/core/sub", not "internal/corex").
func underAny(path string, prefixes []string) bool {
	for _, pre := range prefixes {
		if path == pre || strings.HasPrefix(path, pre+"/") {
			return true
		}
	}
	return false
}

// exprString renders a (simple) expression for diagnostics: identifiers,
// selector chains, indexes, derefs and calls. Anything fancier collapses
// to "…" rather than risking a panic on malformed input.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case nil:
		return "…"
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X) + "[…]"
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.ParenExpr:
		return "(" + exprString(x.X) + ")"
	case *ast.CallExpr:
		return exprString(x.Fun) + "(…)"
	case *ast.UnaryExpr:
		return x.Op.String() + exprString(x.X)
	}
	return "…"
}
