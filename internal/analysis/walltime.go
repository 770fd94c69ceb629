package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// WallTime forbids wall-clock calls outside the real-time allowlist.
//
// Every table and figure in this repository is produced on virtual time
// (internal/sim): events execute in timestamp order and every run
// replays from its seed. One time.Now in a sim-reachable path silently
// couples results to the host scheduler and destroys that property.
//
// The callee is resolved through types.Info: only a function actually
// belonging to package time fires, whatever name it is reached by — an
// aliased or dot import is caught, a local type with a Now method or an
// identifier shadowing the import is not. Test files are not loaded, so
// tests may bound their waits with wall-clock timeouts.
var WallTime = &Analyzer{
	Name: "walltime",
	Doc:  "wall-clock reads/sleeps outside the real-time package allowlist",
	Run:  runWallTime,
}

// wallTimeFns are the time-package calls that couple code to the wall
// clock. Pure conversions (time.Duration arithmetic, ParseDuration) are
// fine and not listed.
var wallTimeFns = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

func runWallTime(p *Pass) {
	if underAny(p.PkgPath, p.Cfg.WallTimeAllow) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var id *ast.Ident
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident: // dot import
				id = fun
			case *ast.SelectorExpr:
				id = fun.Sel
			default:
				return true
			}
			fn, ok := p.UseOf(id).(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !wallTimeFns[fn.Name()] {
				return true
			}
			p.Reportf(call.Pos(), "walltime",
				"time.%s: wall-clock calls are forbidden outside the real-time allowlist (%s); sim/check/replay paths must stay deterministic — use the component's Scheduler/sim.Time instead",
				fn.Name(), strings.Join(p.Cfg.WallTimeAllow, ", "))
			return true
		})
	}
}
