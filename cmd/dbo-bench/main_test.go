package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dbo/internal/experiment"
)

func TestUnknownExperimentExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "nope"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	for _, r := range runners {
		if !strings.Contains(stderr.String(), r.name) {
			t.Errorf("diagnostic %q does not list experiment %q", stderr.String(), r.name)
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("unknown experiment still printed %q", stdout.String())
	}
}

// A baseline of another schema must be refused, not compared field by
// field: the committed schema-1 snapshot is the historical record of
// exactly that case.
func TestCompareRefusesOtherSchema(t *testing.T) {
	var stdout, stderr bytes.Buffer
	old := filepath.Join("..", "..", "BENCH_2026-08-08.json")
	if code := run([]string{"-json", "-short", "-out", "-", "-compare", old}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "schema 1, want 2") {
		t.Errorf("stderr %q does not name the schema mismatch", stderr.String())
	}
	if strings.Contains(stderr.String(), "REGRESSION") || strings.Contains(stdout.String(), "no regression") {
		t.Errorf("compared against a schema-1 baseline anyway:\n%s%s", stdout.String(), stderr.String())
	}
}

func TestCompareAgainstOwnSnapshot(t *testing.T) {
	base := filepath.Join(t.TempDir(), "base.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "-short", "-out", base}, &stdout, &stderr); code != 0 {
		t.Fatalf("snapshot run exit %d; stderr: %s", code, stderr.String())
	}
	// Wall-clock rates of two short runs on a busy test machine can
	// differ by more than the 20% gate; halve the baseline's so the test
	// pins the schema and allocation gates, not the machine's mood.
	raw, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := experiment.ParseBenchReport(raw)
	if err != nil {
		t.Fatalf("own snapshot does not parse: %v", err)
	}
	rep.Pipeline.TradesPerSec /= 2
	rep.Sim.TradesPerSec /= 2
	if raw, err = experiment.EncodeBenchReport(rep); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(base, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	stdout.Reset()
	if code := run([]string{"-json", "-short", "-out", "-", "-compare", base}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "no regression vs "+base) {
		t.Errorf("stdout does not confirm the comparison: %q", stdout.String())
	}
	if _, err := experiment.ParseBenchReport([]byte(strings.SplitAfter(stdout.String(), "\n}\n")[0])); err != nil {
		t.Errorf("-out - did not print a parseable snapshot: %v", err)
	}
}
