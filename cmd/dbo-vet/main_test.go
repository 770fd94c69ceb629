package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dbo/internal/analysis"
)

// vet runs dbo-vet with args inside a temp module holding files (nil:
// wherever the test runs) and returns exit code, stdout and stderr.
func vet(t *testing.T, files map[string]string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	if files != nil {
		root := t.TempDir()
		for name, content := range files {
			full := filepath.Join(root, filepath.FromSlash(name))
			if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		old, err := os.Getwd()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Chdir(root); err != nil {
			t.Fatal(err)
		}
		defer os.Chdir(old) //nolint:errcheck // back to a directory that was just the cwd
	}
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

const goMod = "module dbo\n\ngo 1.23\n"

// TestValidateFlags pins the flag surface: -rules, -format=text|sarif
// and -describe. Every flag dropped with the second mode, the cache and
// the baseline is refused like any unknown flag, not silently accepted
// by a script that still passes it.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of stderr; "" for a clean exit 0
	}{
		{"defaults", nil, ""},
		{"bad-format", []string{"-format=xml"}, `unknown -format "xml"`},
		{"bad-mode", []string{"-mode=turbo"}, "flag provided but not defined: -mode"},
		{"syntactic", []string{"-mode=syntactic"}, "flag provided but not defined: -mode"},
		{"cache-typed", []string{"-cache"}, "flag provided but not defined: -cache"},
		{"cache-syntactic", []string{"-cache", "-mode=syntactic"}, "flag provided but not defined: -cache"},
		{"negative-depth", []string{"-depth=-1"}, "flag provided but not defined: -depth"},
		{"zero-workers", []string{"-workers=0"}, "flag provided but not defined: -workers"},
		{"negative-workers", []string{"-workers=-4"}, "flag provided but not defined: -workers"},
		{"baseline", []string{"-baseline=b.json"}, "flag provided but not defined: -baseline"},
		{"ignores", []string{"-ignores"}, "flag provided but not defined: -ignores"},
		{"format-json", []string{"-format=json"}, `unknown -format "json"`},
	}
	clean := map[string]string{"go.mod": goMod, "p/p.go": "package p\n"}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := vet(t, clean, tc.args...)
			if tc.want == "" {
				if code != 0 || stdout != "" || stderr != "" {
					t.Fatalf("dbo-vet %v = exit %d, stdout %q, stderr %q; want a silent exit 0", tc.args, code, stdout, stderr)
				}
				return
			}
			if code != 2 || !strings.Contains(stderr, tc.want) {
				t.Fatalf("dbo-vet %v = exit %d, stderr %q; want exit 2 mentioning %q", tc.args, code, stderr, tc.want)
			}
		})
	}
}

// The first failing check must win, so scripts see a stable diagnostic:
// the format is judged before the rule list, and both before any load.
func TestValidateFlagsOrder(t *testing.T) {
	code, _, stderr := vet(t, map[string]string{"go.mod": goMod, "p/p.go": "package p\nfunc {"}, "-format=nope", "-rules=nosuch")
	if code != 2 || !strings.Contains(stderr, "-format") || strings.Contains(stderr, "nosuch") || strings.Contains(stderr, "parse") {
		t.Fatalf("exit %d, stderr %q; want exit 2 with the -format error alone", code, stderr)
	}
}

func TestDescribeListsEveryRule(t *testing.T) {
	code, stdout, stderr := vet(t, nil, "-describe")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		got = append(got, strings.Fields(line)[0])
	}
	want := "walltime lockheld clockcmp naketime errdrop poolowner atomicmix allocfree lockorder detsource"
	if strings.Join(got, " ") != want {
		t.Fatalf("-describe lists %v, want %s", got, want)
	}
	if len(got) != len(analysis.RuleNames()) {
		t.Fatalf("-describe lists %d rules, the registry holds %d", len(got), len(analysis.RuleNames()))
	}
}

func TestFindingExitsOne(t *testing.T) {
	files := map[string]string{
		"go.mod":                  goMod,
		"internal/sim/clock.go":   "package sim\n\nimport \"time\"\n\nfunc Now() time.Time { return time.Now() }\n",
		"internal/rt/realtime.go": "package rt\n\nimport \"time\"\n\nfunc Now() time.Time { return time.Now() }\n",
	}
	code, stdout, stderr := vet(t, files, "./...")
	wantLine := "internal/sim/clock.go:5:31: [walltime] time.Now: wall-clock calls are forbidden outside the real-time allowlist"
	if code != 1 || strings.Count(stdout, "\n") != 1 || !strings.HasPrefix(stdout, wantLine) {
		t.Fatalf("exit %d, stdout %q; want exit 1 and the one line %q…", code, stdout, wantLine)
	}
	if stderr != "dbo-vet: 1 finding(s)\n" {
		t.Fatalf("stderr = %q", stderr)
	}

	// The selector keeps a deselected rule's finding out, and the pattern
	// keeps an unselected package's.
	if code, stdout, _ := vet(t, files, "-rules=lockheld,errdrop", "./..."); code != 0 || stdout != "" {
		t.Fatalf("-rules without walltime: exit %d, stdout %q; want a silent exit 0", code, stdout)
	}
	if code, stdout, _ := vet(t, files, "./internal/rt"); code != 0 || stdout != "" {
		t.Fatalf("pattern without internal/sim: exit %d, stdout %q; want a silent exit 0", code, stdout)
	}

	code, stdout, _ = vet(t, files, "-format=sarif")
	if code != 1 || !strings.Contains(stdout, `"ruleId": "walltime"`) || !strings.Contains(stdout, `"uri": "internal/sim/clock.go"`) {
		t.Fatalf("-format=sarif: exit %d, stdout %q", code, stdout)
	}
}

// The PR 17 shape: a package that stops type-checking used to be demoted
// to name heuristics and the run exited 0.
func TestTypeErrorExitsTwo(t *testing.T) {
	code, stdout, stderr := vet(t, map[string]string{
		"go.mod":                goMod,
		"internal/sim/clock.go": "package sim\n\nimport \"time\"\n\nfunc Now() time.Time { return time.Now() + undefinedIdentifier }\n",
	}, "./...")
	if code != 2 || stdout != "" {
		t.Fatalf("exit %d, stdout %q; want exit 2 and no findings", code, stdout)
	}
	for _, frag := range []string{"package internal/sim does not type-check", "clock.go:5", "undefinedIdentifier"} {
		if !strings.Contains(stderr, frag) {
			t.Errorf("stderr should contain %q, got %q", frag, stderr)
		}
	}
}

func TestUnknownRuleExitsTwo(t *testing.T) {
	code, stdout, stderr := vet(t, nil, "-rules=walltime,goexit")
	want := `dbo-vet: unknown rule "goexit" in -rules (known: allocfree, atomicmix, clockcmp, detsource, errdrop, lockheld, lockorder, naketime, poolowner, walltime)` + "\n"
	if code != 2 || stdout != "" || stderr != want {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 2 and %q", code, stdout, stderr, want)
	}
}
