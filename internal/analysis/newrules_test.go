package analysis

import (
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAllocFreeRootsResolve pins the contract between the static rule
// and the runtime probes: every pinned hot-path root in the default
// config must resolve to a declared function in the real module's call
// graph, and every PoolAPI must name a real type with both methods. A
// rename that silently empties the root set would turn allocfree into
// a vacuous pass — this test makes that a loud failure instead.
func TestAllocFreeRootsResolve(t *testing.T) {
	mod, _ := loadRepo(t)
	cfg := Default()

	resolved := make(map[HotPathRoot]int)
	for fn := range mod.Graph.nodes {
		for _, r := range cfg.AllocFreeRoots {
			if moduleRel(mod, fn) == r.Pkg && FuncDisplay(fn) == r.Func {
				resolved[r]++
			}
		}
	}
	for _, r := range cfg.AllocFreeRoots {
		switch n := resolved[r]; n {
		case 1:
		case 0:
			t.Errorf("allocfree root %s.%s resolves to nothing in the call graph", r.Pkg, r.Func)
		default:
			t.Errorf("allocfree root %s.%s resolves to %d functions; want exactly one", r.Pkg, r.Func, n)
		}
	}

	for _, api := range cfg.PoolAPIs {
		dot := strings.LastIndex(api.Type, ".")
		if dot < 0 {
			t.Errorf("PoolAPI type %q is not fully qualified", api.Type)
			continue
		}
		pkgPath, typeName := api.Type[:dot], api.Type[dot+1:]
		rel := strings.TrimPrefix(pkgPath, mod.Path+"/")
		pkg := mod.byRel[rel]
		if pkg == nil {
			t.Errorf("PoolAPI package %s is not in the module", pkgPath)
			continue
		}
		tp := pkg.Types
		obj := tp.Scope().Lookup(typeName)
		if obj == nil {
			t.Errorf("PoolAPI type %s not found in %s", typeName, pkgPath)
			continue
		}
		for _, method := range []string{api.Get, api.Put} {
			m, _, _ := types.LookupFieldOrMethod(obj.Type(), true, tp, method)
			if _, ok := m.(*types.Func); !ok {
				t.Errorf("PoolAPI %s has no method %s", api.Type, method)
			}
		}
	}

	for _, scope := range cfg.AllocFreeScope {
		if fi, err := os.Stat(filepath.Join(mod.Root, filepath.FromSlash(scope))); err != nil || !fi.IsDir() {
			t.Errorf("AllocFreeScope entry %s is not a directory in the module", scope)
		}
	}
}

// TestEnabledRulesSelector pins -rules semantics end to end through the
// pipeline: a finding from a deselected rule must not surface,
// and reselecting the rule brings it back unchanged.
func TestEnabledRulesSelector(t *testing.T) {
	t.Parallel()
	mod := buildFixtureModule(t, map[string]string{
		"internal/core/sel/sel.go": `package sel

import "dbo/internal/market"

var pool market.TradePool

func useAfterPut() {
	t := pool.Get()
	pool.Put(t)
	t.Seq = 1
}
`,
	})
	run := func(rules ...string) []Diagnostic {
		cfg := Default()
		cfg.EnabledRules = rules
		return mod.Run(cfg, []string{"./internal/core/sel"})
	}

	if diags := run("poolowner"); len(diags) != 1 || diags[0].Rule != "poolowner" {
		t.Fatalf("with poolowner enabled: got %v, want one poolowner finding", diags)
	}
	for _, d := range run("lockorder") {
		t.Errorf("with poolowner disabled, finding leaked through: %s", d.String())
	}
	if diags := run(); len(diags) != 1 {
		t.Errorf("empty selector must mean all rules: got %v", diags)
	}
}

// TestDisabledRuleIgnoreNotUnused pins the directive interaction: when
// CI gates a rule subset, //dbo:vet-ignore annotations for the *other*
// rules must not be reported as unused noise — but a genuinely stale
// directive still is when its rule runs.
func TestDisabledRuleIgnoreNotUnused(t *testing.T) {
	t.Parallel()
	mod := buildFixtureModule(t, map[string]string{
		"internal/core/ig/ig.go": `package ig

import "dbo/internal/market"

var pool market.TradePool

func cleanRoundTrip() {
	t := pool.Get()
	//dbo:vet-ignore poolowner stale by design: the round trip below is clean
	pool.Put(t)
}
`,
	})
	run := func(rules ...string) []Diagnostic {
		cfg := Default()
		cfg.EnabledRules = rules
		return mod.Run(cfg, []string{"./internal/core/ig"})
	}

	diags := run()
	if len(diags) != 1 || diags[0].Rule != "unused-ignore" {
		t.Errorf("with all rules: got %v, want exactly one unused-ignore", diags)
	}
	for _, d := range run("lockorder") {
		t.Errorf("directive for a disabled rule reported: %s", d.String())
	}
}
