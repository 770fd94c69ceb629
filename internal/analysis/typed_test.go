package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// miniMarket mirrors the real dbo/internal/market surface the typed
// fixtures need: the DeliveryClock tuple and its id/time scalar types.
// clockcmp's type-identity match keys on the type name plus the
// "internal/market" path suffix, so a temp module named "dbo" with this
// package exercises the same code path as the real tree.
const miniMarket = `package market

type ParticipantID int32

type PointID uint64

type Time int64

type DeliveryClock struct {
	Point   PointID
	Elapsed Time
}

type Trade struct {
	MP  ParticipantID
	Seq uint64
	DC  DeliveryClock
}

// TradePool mirrors the real pool's Get/Put API so the default
// PoolAPIs config matches "dbo/internal/market.TradePool" inside the
// fixture module too. The free list is a fixed-size array: the default
// allocfree roots also resolve here, and the pool body itself must not
// trip them.
type TradePool struct {
	free [8]*Trade
	n    int
}

func (p *TradePool) Get() *Trade {
	if p.n == 0 {
		return nil
	}
	p.n--
	t := p.free[p.n]
	p.free[p.n] = nil
	return t
}

func (p *TradePool) Put(t *Trade) {
	if t == nil || p.n == len(p.free) {
		return
	}
	p.free[p.n] = t
	p.n++
}
`

// typedFixtures are the fixtures compiled together into one module, each
// under a path that puts its rule in scope (errdrop wants ErrDropScope,
// allocfree wants a pinned root's package, …).
var typedFixtures = []struct {
	file    string
	pkgPath string
}{
	{"atomicmix.go", "internal/core/cx"},
	{"errdrop.go", "internal/core/ed"},
	{"lockheld_interproc.go", "internal/node/lh"},
	{"poolowner.go", "internal/core/po"},
	{"allocfree.go", "internal/wire"},
	{"lockorder.go", "internal/node/lo"},
	{"detsource.go", "internal/sim/ds"},
}

// writeFixtureModule writes a temp module ("module dbo") holding the
// mini market package plus the given files, and returns its root.
func writeFixtureModule(t testing.TB, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	writeTree(t, root, map[string]string{
		"go.mod":                    "module dbo\n\ngo 1.23\n",
		"internal/market/market.go": miniMarket,
	})
	writeTree(t, root, files)
	return root
}

// buildFixtureModule loads writeFixtureModule's module.
func buildFixtureModule(t testing.TB, files map[string]string) *Module {
	t.Helper()
	mod, err := LoadModule(writeFixtureModule(t, files))
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

func readFixture(t testing.TB, name string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// TestTypedGolden compiles the multi-package fixtures into one module,
// so the module-level rules see them side by side, and requires an
// exact match between findings and `// want` expectations.
func TestTypedGolden(t *testing.T) {
	t.Parallel()
	files := make(map[string]string)
	srcByBase := make(map[string]string)
	for _, fx := range typedFixtures {
		src := readFixture(t, fx.file)
		files[fx.pkgPath+"/"+fx.file] = src
		srcByBase[fx.file] = src
	}
	checkWants(t, buildFixtureModule(t, files).Run(Default(), nil), srcByBase)
}

// TestInterprocLockHeld: the critical section of the fixture holds no
// blocking operation of its own, only a call whose callee two hops down
// sends on a channel. The diagnostic must name the chain and the
// blocking reason.
func TestInterprocLockHeld(t *testing.T) {
	t.Parallel()
	src := readFixture(t, "lockheld_interproc.go")
	mod := buildFixtureModule(t, map[string]string{"internal/node/lh/lockheld_interproc.go": src})
	diags := mod.Run(Default(), nil)
	if len(diags) != 1 || diags[0].Rule != "lockheld" {
		t.Fatalf("want exactly one lockheld finding, got %v", render(diags))
	}
	for _, frag := range []string{"forward", "emit", "channel send"} {
		if !strings.Contains(diags[0].Msg, frag) {
			t.Errorf("diagnostic should name %q in the blocking chain, got: %s", frag, diags[0].Msg)
		}
	}
}

// TestTypedRuleHasHitAndSuppression is the acceptance matrix for the
// rules that need the call graph, the CFG or the whole module: each
// produces exactly one finding on a minimal module, and a line-scoped
// //dbo:vet-ignore silences it.
func TestTypedRuleHasHitAndSuppression(t *testing.T) {
	t.Parallel()
	cases := map[string]struct {
		pkgPath string
		src     string
	}{
		"atomicmix": {"internal/core/am", `package am

import "sync/atomic"

var n int64

func bump() { atomic.AddInt64(&n, 1) }

func read() int64 { return n }
`},
		"errdrop": {"internal/core/edx", `package edx

func submit() error { return nil }

func f() { submit() }
`},
		"lockheld": {"internal/node/lhx", `package lhx

import "sync"

type q struct {
	mu sync.Mutex
	ch chan int
}

func (x *q) emit() { x.ch <- 0 }

func (x *q) pub() {
	x.mu.Lock()
	x.emit()
	x.mu.Unlock()
}
`},
		"clockcmp": {"internal/exchange/ccx", `package ccx

import "dbo/internal/market"

func f(a, b market.DeliveryClock) bool { return a.Elapsed < b.Elapsed }
`},
		"poolowner": {"internal/core/pox", `package pox

import "dbo/internal/market"

var pool market.TradePool

func f() {
	t := pool.Get()
	pool.Put(t)
	t.Seq = 1
}
`},
		"allocfree": {"internal/wire", `package wire

func DecodeInto(dst, buf []byte) []byte {
	return make([]byte, len(buf))
}
`},
		"detsource": {"internal/sim/dsx", `package dsx

func f(w map[int]int) int {
	s := 0
	for k := range w {
		s += w[k]
	}
	return s
}
`},
	}
	for rule, tc := range cases {
		rule, tc := rule, tc
		t.Run(rule, func(t *testing.T) {
			t.Parallel()
			hitAndSuppress(t, rule, tc.pkgPath, tc.src)
		})
	}
}

// TestLockOrderHitAndSuppression is lockorder's counterpart to the
// exactly-one matrix above: a minimal AB/BA cycle inherently yields one
// finding per edge (two), and suppressing both sites with reasoned
// directives silences the rule.
func TestLockOrderHitAndSuppression(t *testing.T) {
	t.Parallel()
	src := `package lox

import "sync"

var a, b sync.Mutex

func ab() {
	a.Lock()
	b.Lock()%s
	b.Unlock()
	a.Unlock()
}

func ba() {
	b.Lock()
	a.Lock()%s
	a.Unlock()
	b.Unlock()
}
`
	file := "internal/node/lox/fix.go"
	mod := buildFixtureModule(t, map[string]string{file: fmt.Sprintf(src, "", "")})
	diags := mod.Run(Default(), nil)
	if len(diags) != 2 || diags[0].Rule != "lockorder" || diags[1].Rule != "lockorder" {
		t.Fatalf("want exactly two lockorder findings (one per edge), got %v", render(diags))
	}

	patched := fmt.Sprintf(src,
		" //dbo:vet-ignore lockorder test suppresses the forward edge",
		" //dbo:vet-ignore lockorder test suppresses the reverse edge")
	mod = buildFixtureModule(t, map[string]string{file: patched})
	if diags := mod.Run(Default(), nil); len(diags) != 0 {
		t.Fatalf("directives did not suppress the cycle: %v", render(diags))
	}
}

// TestTypeErrorIsHardError: a package that parses but does not compile
// fails the load — the PR 17 shape, where such a package used to be
// demoted to name heuristics without a word. The error names the
// package at fault, not the first one (in load order) that imports it.
func TestTypeErrorIsHardError(t *testing.T) {
	t.Parallel()
	root := writeFixtureModule(t, map[string]string{
		"internal/sim/aa/aa.go": "package aa\n\nimport _ \"dbo/internal/sim/fb\"\n",
		"internal/sim/fb/fb.go": "package fb\n\nvar _ = undefinedIdentifier\n",
	})
	mod, err := LoadModule(root)
	if err == nil || mod != nil {
		t.Fatalf("LoadModule = %v, %v; want no module and an error", mod, err)
	}
	for _, frag := range []string{"package internal/sim/fb does not type-check", "fb.go:3", "undefinedIdentifier"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error should contain %q, got: %v", frag, err)
		}
	}
	if strings.Contains(err.Error(), "sim/aa") {
		t.Errorf("error should name the package at fault only, got: %v", err)
	}
}

// repo is this repository, loaded once for every test that needs it.
var repo struct {
	once sync.Once
	mod  *Module
	err  error
	load time.Duration
}

func loadRepo(t testing.TB) (*Module, time.Duration) {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	repo.once.Do(func() {
		root, err := ModuleRoot(".")
		if err != nil {
			repo.err = err
			return
		}
		start := time.Now()
		repo.mod, repo.err = LoadModule(root)
		repo.load = time.Since(start)
	})
	if repo.err != nil {
		t.Fatal(repo.err)
	}
	return repo.mod, repo.load
}

// TestVetModuleClean runs dbo-vet over this repository itself: the
// swept tree must produce zero findings (the CI gate), and load plus
// run must fit the wall-clock budget that keeps dbo-vet usable as a
// pre-commit hook (under a second on a 2-vCPU box; the budget leaves
// room for a slow CI runner and is relaxed under the race detector).
func TestVetModuleClean(t *testing.T) {
	mod, load := loadRepo(t)
	start := time.Now()
	diags := mod.Run(Default(), nil)
	elapsed := load + time.Since(start)

	for _, d := range diags {
		t.Errorf("swept tree is not clean: %s", d.String())
	}
	budget := 10 * time.Second
	if raceEnabled {
		budget = 30 * time.Second
	}
	if elapsed > budget {
		t.Errorf("vet of the module took %v (load %v), over the %v budget", elapsed, load, budget)
	}
}

// BenchmarkVetModule measures one run over the loaded repository of
// every rule together and of each rule alone (DESIGN §6.1's cost
// column), and reports the one-time load beside them.
func BenchmarkVetModule(b *testing.B) {
	mod, load := loadRepo(b)
	names := []string{"all"}
	for name := range RuleNames() {
		names = append(names, name)
	}
	sort.Strings(names[1:])
	for _, name := range names {
		cfg := Default()
		if name != "all" {
			cfg.EnabledRules = []string{name}
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if diags := mod.Run(cfg, nil); len(diags) != 0 {
					b.Fatalf("swept tree is not clean: %d finding(s)", len(diags))
				}
			}
			b.ReportMetric(float64(load.Milliseconds()), "load-ms")
		})
	}
}
