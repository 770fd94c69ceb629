package analysis

import (
	"strings"
	"testing"
)

// checkFix analyzes src as the one file of package internal/sim.
func checkFix(t *testing.T, src string) []Diagnostic {
	t.Helper()
	diags, err := CheckSource("fix.go", "internal/sim", []byte(src), Default())
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

// Two different rules fire on one line; a directive names one of them.
// Exactly that diagnostic must disappear — the other survives.
func TestIgnoreSuppressesExactlyOne(t *testing.T) {
	t.Parallel()
	src := `package p

import "time"

//dbo:vet-ignore walltime demonstrating single-rule suppression
func f(timeoutNs int64) { _ = time.Now() }
`
	diags := checkFix(t, src)
	if len(diags) != 1 {
		t.Fatalf("want exactly the naketime finding to survive, got %v", render(diags))
	}
	if diags[0].Rule != "naketime" {
		t.Fatalf("surviving rule = %s, want naketime", diags[0].Rule)
	}

	// Without the directive both findings are reported on that line.
	bare := strings.Replace(src, "//dbo:vet-ignore walltime demonstrating single-rule suppression\n", "", 1)
	diags = checkFix(t, bare)
	if len(diags) != 2 {
		t.Fatalf("want walltime+naketime without the directive, got %v", render(diags))
	}
}

// A directive trailing code covers its own line, not the next one.
func TestIgnoreTrailingCoversOwnLine(t *testing.T) {
	t.Parallel()
	src := `package p

import "time"

func f() {
	_ = time.Now() //dbo:vet-ignore walltime this line is annotated
	_ = time.Now()
}
`
	diags := checkFix(t, src)
	if len(diags) != 1 || diags[0].Rule != "walltime" || diags[0].Pos.Line != 7 {
		t.Fatalf("want only the unannotated line-7 finding, got %v", render(diags))
	}
}

// A directive that suppresses nothing is itself reported, at its own
// position, so stale annotations cannot linger.
func TestUnusedIgnoreReported(t *testing.T) {
	t.Parallel()
	src := `package p

//dbo:vet-ignore walltime nothing here uses the wall clock
var x = 1
`
	diags := checkFix(t, src)
	if len(diags) != 1 || diags[0].Rule != "unused-ignore" || diags[0].Pos.Line != 3 {
		t.Fatalf("want one unused-ignore at line 3, got %v", render(diags))
	}
}

// Malformed directives (missing reason, unknown rule) are findings.
func TestMalformedIgnoreReported(t *testing.T) {
	t.Parallel()
	src := `package p

//dbo:vet-ignore walltime
//dbo:vet-ignore nosuchrule because reasons
//dbo:vet-ignore
var x = 1
`
	diags := checkFix(t, src)
	if len(diags) != 3 {
		t.Fatalf("want 3 bad-ignore findings, got %v", render(diags))
	}
	for _, d := range diags {
		if d.Rule != "bad-ignore" {
			t.Fatalf("rule = %s, want bad-ignore: %v", d.Rule, render(diags))
		}
	}
}

// Strict line scoping: a directive covering line N must not mask the
// identical finding on line M, whatever their distance or order. Each
// call gets its own reasoned annotation or its own finding.
func TestIgnoreLineNDoesNotMaskLineM(t *testing.T) {
	t.Parallel()
	src := `package p

import "time"

func f() {
	//dbo:vet-ignore walltime only THIS call is sanctioned
	_ = time.Now()
	_ = time.Now()
	_ = time.Now()
}
`
	diags := checkFix(t, src)
	if len(diags) != 2 {
		t.Fatalf("want the line-8 and line-9 findings to survive, got %v", render(diags))
	}
	gotLines := []int{diags[0].Pos.Line, diags[1].Pos.Line}
	if gotLines[0] != 8 || gotLines[1] != 9 {
		t.Fatalf("surviving lines = %v, want [8 9]", gotLines)
	}
	for _, d := range diags {
		if d.Rule != "walltime" {
			t.Fatalf("surviving rule = %s, want walltime: %v", d.Rule, render(diags))
		}
	}
}

// A run of stacked standalone directives chains: every directive in the
// run covers the first code line below it, so a statement tripping two
// rules carries one reasoned annotation per rule. None may end up
// unused, and none may leak onto later lines.
func TestIgnoreStackedStandaloneDirectives(t *testing.T) {
	t.Parallel()
	src := `package p

import "time"

func f(timeoutNs int64) {
	//dbo:vet-ignore walltime the stack's upper directive must reach past the lower one
	//dbo:vet-ignore lockheld exercises stacking with a second rule that does not fire
	_ = time.Now()
	_ = time.Now()
}
`
	diags := checkFix(t, src)
	// Expected: line-8 walltime suppressed by the first directive; the
	// second directive names a rule with no finding on line 8, so it is
	// an unused-ignore; line-9 walltime survives; the naketime finding
	// on the parameter survives untouched.
	want := map[string]int{"unused-ignore": 7, "walltime": 9, "naketime": 5}
	if len(diags) != len(want) {
		t.Fatalf("got %d finding(s) %v, want %d", len(diags), render(diags), len(want))
	}
	for _, d := range diags {
		line, ok := want[d.Rule]
		if !ok || d.Pos.Line != line {
			t.Fatalf("unexpected finding [%s] at line %d, want %v among %v", d.Rule, d.Pos.Line, want, render(diags))
		}
		delete(want, d.Rule)
	}

	// Both directives suppressing real same-line findings: nothing
	// survives and neither directive is unused.
	src2 := `package p

import (
	"sync"
	"time"
)

func f(mu *sync.Mutex) {
	mu.Lock()
	//dbo:vet-ignore walltime wall-clock read under lock is deliberate here
	//dbo:vet-ignore lockheld sleep under lock is deliberate here
	time.Sleep(time.Millisecond)
	mu.Unlock()
}
`
	diags = checkFix(t, src2)
	if len(diags) != 0 {
		t.Fatalf("want both stacked directives to suppress their rule, got %v", render(diags))
	}
}

// The suppressed-diagnostic accounting must mark a directive used even
// when several same-rule findings share the line (both are silenced by
// the one directive).
func TestIgnoreCoversWholeLineForItsRule(t *testing.T) {
	t.Parallel()
	src := `package p

import "time"

func f() {
	//dbo:vet-ignore walltime both calls on the next line are deliberate
	a, b := time.Now(), time.Now()
	_, _ = a, b
}
`
	diags := checkFix(t, src)
	if len(diags) != 0 {
		t.Fatalf("want both same-line findings suppressed, got %v", render(diags))
	}
}
