package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// goldenFixtures maps each single-package fixture to the module path it
// is compiled under (allowlists are path-keyed, so the path selects
// which rules may fire).
var goldenFixtures = []struct {
	file    string
	pkgPath string
}{
	{"walltime.go", "internal/sim"},
	{"walltime_allowed.go", "internal/rt"},
	{"lockheld.go", "internal/rt"},
	{"clockcmp.go", "internal/exchange/cc"},
	{"naketime.go", "internal/stats"},
}

var wantRe = regexp.MustCompile(`// want ((?:"[^"]*"\s*)+)`)
var wantArgRe = regexp.MustCompile(`"([^"]*)"`)

// parseWants extracts `// want "re" ["re" ...]` expectations per line.
func parseWants(t *testing.T, src []byte) map[int][]*regexp.Regexp {
	t.Helper()
	wants := make(map[int][]*regexp.Regexp)
	for i, line := range strings.Split(string(src), "\n") {
		m := wantRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		for _, arg := range wantArgRe.FindAllStringSubmatch(m[1], -1) {
			re, err := regexp.Compile(arg[1])
			if err != nil {
				t.Fatalf("line %d: bad want pattern %q: %v", i+1, arg[1], err)
			}
			wants[i+1] = append(wants[i+1], re)
		}
	}
	return wants
}

// checkWants requires an exact match between findings and the `// want`
// expectations of the fixture sources (keyed by base name): every
// diagnostic must be wanted at its line, every want must be hit.
func checkWants(t *testing.T, diags []Diagnostic, srcByBase map[string]string) {
	t.Helper()
	type key struct {
		base string
		line int
	}
	byLine := make(map[key][]Diagnostic)
	for _, d := range diags {
		base := filepath.Base(d.Pos.Filename)
		if _, ok := srcByBase[base]; !ok {
			t.Errorf("diagnostic in unexpected file %s: [%s] %s", d.Pos.Filename, d.Rule, d.Msg)
			continue
		}
		byLine[key{base, d.Pos.Line}] = append(byLine[key{base, d.Pos.Line}], d)
	}
	for base, src := range srcByBase {
		for line, res := range parseWants(t, []byte(src)) {
			got := byLine[key{base, line}]
			delete(byLine, key{base, line})
			if len(got) != len(res) {
				t.Errorf("%s:%d: got %d diagnostic(s), want %d: %v", base, line, len(got), len(res), render(got))
				continue
			}
			for _, re := range res {
				matched := false
				for _, d := range got {
					if re.MatchString(fmt.Sprintf("[%s] %s", d.Rule, d.Msg)) {
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("%s:%d: no diagnostic matches %q among %v", base, line, re, render(got))
				}
			}
		}
	}
	for k, got := range byLine {
		t.Errorf("%s:%d: unexpected diagnostic(s): %v", k.base, k.line, render(got))
	}
}

func render(ds []Diagnostic) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = fmt.Sprintf("[%s] %s", d.Rule, d.Msg)
	}
	return out
}

// TestGolden compiles each single-package fixture into its own module
// and checks its findings against its `// want` lines.
func TestGolden(t *testing.T) {
	t.Parallel()
	for _, fx := range goldenFixtures {
		fx := fx
		t.Run(fx.file, func(t *testing.T) {
			t.Parallel()
			src := readFixture(t, fx.file)
			mod := buildFixtureModule(t, map[string]string{fx.pkgPath + "/" + fx.file: src})
			checkWants(t, mod.Run(Default(), nil), map[string]string{fx.file: src})
		})
	}
}

// hitAndSuppress is one cell of the acceptance matrix: src, compiled as
// package pkgPath, must produce exactly one finding, of rule, and a
// //dbo:vet-ignore above that line must silence exactly that finding.
func hitAndSuppress(t *testing.T, rule, pkgPath, src string) {
	t.Helper()
	file := pkgPath + "/fix.go"
	diags := buildFixtureModule(t, map[string]string{file: src}).Run(Default(), nil)
	if len(diags) != 1 || diags[0].Rule != rule {
		t.Fatalf("want exactly one %s finding, got %v", rule, render(diags))
	}
	hitLine := diags[0].Pos.Line

	lines := strings.Split(src, "\n")
	directive := "//dbo:vet-ignore " + rule + " fixture exercises suppression"
	patched := strings.Join(append(append(append([]string{}, lines[:hitLine-1]...), directive), lines[hitLine-1:]...), "\n")
	if diags := buildFixtureModule(t, map[string]string{file: patched}).Run(Default(), nil); len(diags) != 0 {
		t.Fatalf("directive did not suppress the %s finding: %v", rule, render(diags))
	}
}

// TestEveryRuleHasHitAndSuppression is the acceptance matrix for the
// rules that judge one expression or declaration on its own;
// TestTypedRuleHasHitAndSuppression covers the ones that need the call
// graph, the CFG or the whole module.
func TestEveryRuleHasHitAndSuppression(t *testing.T) {
	t.Parallel()
	cases := map[string]struct {
		pkgPath string
		src     string // one finding for the rule, no directive
	}{
		"walltime": {"internal/sim", "package p\nimport \"time\"\nfunc f() { _ = time.Now() }\n"},
		"lockheld": {"internal/rt", "package p\nimport \"sync\"\nfunc f(mu *sync.Mutex, ch chan int) {\nmu.Lock()\nch <- 1\nmu.Unlock()\n}\n"},
		"clockcmp": {"internal/exchange", "package p\nimport \"dbo/internal/market\"\nfunc f(a market.DeliveryClock, cutoff market.Time) bool {\nreturn a.Elapsed > cutoff\n}\n"},
		"naketime": {"internal/stats", "package p\ntype c struct {\nTimeoutNs int64\n}\n"},
	}
	for rule, tc := range cases {
		rule, tc := rule, tc
		t.Run(rule, func(t *testing.T) {
			t.Parallel()
			hitAndSuppress(t, rule, tc.pkgPath, tc.src)
		})
	}
}

// TestLoadModule checks the walker: package discovery, what is not
// loaded (test files, testdata, vendor, dot/underscore dirs), pattern
// matching, and a package that does not parse failing the load.
func TestLoadModule(t *testing.T) {
	t.Parallel()
	root := t.TempDir()
	writeTree(t, root, map[string]string{
		"go.mod":               "module fake\n",
		"a/a.go":               "package a\n",
		"a/a_test.go":          "package a\nfunc {", // not loaded, so never parsed
		"a/testdata/skip.go":   "package skipme\nfunc {",
		"a/b/b.go":             "package b\n\nimport _ \"fake/a\"\n",
		".hidden/h.go":         "package h\nfunc {",
		"d/notgo.txt":          "hello",
		"_underscore/u.go":     "package u\nfunc {",
		"a/b/vendor/v/vend.go": "package v\nfunc {",
	})

	mod, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range mod.Pkgs {
		paths = append(paths, p.Path)
	}
	if want := []string{"a", "a/b"}; fmt.Sprint(paths) != fmt.Sprint(want) {
		t.Fatalf("paths = %v, want %v", paths, want)
	}

	for pattern, want := range map[string][]string{
		"./...":   {"a", "a/b"},
		"./a/...": {"a", "a/b"},
		"./a":     {"a"},
		"a/b":     {"a/b"},
		"./b":     nil,
	} {
		var got []string
		for _, p := range paths {
			if matchesAny(p, []string{pattern}) {
				got = append(got, p)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("pattern %s selects %v, want %v", pattern, got, want)
		}
	}

	writeTree(t, root, map[string]string{"c/broken.go": "package c\nfunc {"})
	if _, err := LoadModule(root); err == nil || !strings.Contains(err.Error(), "package c does not parse") {
		t.Fatalf("load of a tree with a syntax error: err = %v, want it to name package c", err)
	}
}

func writeTree(t testing.TB, root string, files map[string]string) {
	t.Helper()
	for name, content := range files {
		full := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestModuleRoot finds go.mod from a nested directory.
func TestModuleRoot(t *testing.T) {
	t.Parallel()
	root := t.TempDir()
	writeTree(t, root, map[string]string{"go.mod": "module fake\n", "x/y/z.go": "package y\n"})
	got, err := ModuleRoot(filepath.Join(root, "x", "y"))
	if err != nil {
		t.Fatal(err)
	}
	// Resolve symlinks (macOS TempDir) before comparing.
	r1, _ := filepath.EvalSymlinks(root)
	r2, _ := filepath.EvalSymlinks(got)
	if r1 != r2 {
		t.Fatalf("ModuleRoot = %q, want %q", got, root)
	}
}
