package analysis

import (
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"
)

func sampleDiags() []Diagnostic {
	return []Diagnostic{
		{
			Pos:  token.Position{Filename: "/mod/internal/core/shard.go", Line: 42, Column: 7},
			Rule: "lockheld",
			Msg:  "channel send while holding s.mu",
		},
		{
			Pos:  token.Position{Filename: "/mod/internal/sim/sim.go", Line: 9, Column: 2},
			Rule: "walltime",
			Msg:  "time.Now: wall-clock calls are forbidden",
		},
	}
}

// TestFormatSARIFShape validates the emitted log against the SARIF
// 2.1.0 shape CI and code-scanning UIs rely on: schema/version pair,
// one run with driver metadata declaring every rule, and results whose
// ruleIndex points back into that rules array with a physical location.
func TestFormatSARIFShape(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := FormatSARIF(&buf, sampleDiags(), "/mod"); err != nil {
		t.Fatal(err)
	}

	var log map[string]any
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("sarif output is not valid JSON: %v", err)
	}
	if v, _ := log["version"].(string); v != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", v)
	}
	if s, _ := log["$schema"].(string); !strings.Contains(s, "sarif-schema-2.1.0") {
		t.Errorf("$schema = %q, want the 2.1.0 schema URI", s)
	}

	runs, _ := log["runs"].([]any)
	if len(runs) != 1 {
		t.Fatalf("want exactly one run, got %d", len(runs))
	}
	run := runs[0].(map[string]any)
	driver := run["tool"].(map[string]any)["driver"].(map[string]any)
	if name, _ := driver["name"].(string); name != "dbo-vet" {
		t.Errorf("driver.name = %q, want dbo-vet", name)
	}

	rules, _ := driver["rules"].([]any)
	ruleIDs := make(map[string]int)
	for i, r := range rules {
		rm := r.(map[string]any)
		id, _ := rm["id"].(string)
		if id == "" {
			t.Fatalf("rule %d has no id", i)
		}
		if _, ok := rm["shortDescription"].(map[string]any)["text"].(string); !ok {
			t.Errorf("rule %s lacks shortDescription.text", id)
		}
		ruleIDs[id] = i
	}
	// Every analyzer plus the loader/directive pseudo-rules must be
	// declared, findings or not.
	for _, a := range All() {
		if _, ok := ruleIDs[a.Name]; !ok {
			t.Errorf("rule %s missing from driver metadata", a.Name)
		}
	}
	for _, a := range AllModule() {
		if _, ok := ruleIDs[a.Name]; !ok {
			t.Errorf("rule %s missing from driver metadata", a.Name)
		}
	}
	for _, pseudo := range []string{"bad-ignore", "unused-ignore"} {
		if _, ok := ruleIDs[pseudo]; !ok {
			t.Errorf("pseudo-rule %s missing from driver metadata", pseudo)
		}
	}

	results, _ := run["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("want 2 results, got %d", len(results))
	}
	first := results[0].(map[string]any)
	if id, _ := first["ruleId"].(string); id != "lockheld" {
		t.Errorf("results[0].ruleId = %q, want lockheld", id)
	}
	if idx, _ := first["ruleIndex"].(float64); int(idx) != ruleIDs["lockheld"] {
		t.Errorf("results[0].ruleIndex = %v, want %d (the driver rules index)", idx, ruleIDs["lockheld"])
	}
	if lvl, _ := first["level"].(string); lvl != "error" {
		t.Errorf("results[0].level = %q, want error", lvl)
	}
	locs, _ := first["locations"].([]any)
	if len(locs) != 1 {
		t.Fatalf("results[0] needs exactly one location, got %d", len(locs))
	}
	phys := locs[0].(map[string]any)["physicalLocation"].(map[string]any)
	if uri, _ := phys["artifactLocation"].(map[string]any)["uri"].(string); uri != "internal/core/shard.go" {
		t.Errorf("uri = %q, want module-relative forward-slash path", uri)
	}
	region := phys["region"].(map[string]any)
	if l, _ := region["startLine"].(float64); int(l) != 42 {
		t.Errorf("startLine = %v, want 42", l)
	}
	if c, _ := region["startColumn"].(float64); int(c) != 7 {
		t.Errorf("startColumn = %v, want 7", c)
	}
}

// An empty run must still be a valid SARIF log (results: [], not null) —
// CI uploads the artifact unconditionally.
func TestFormatSARIFEmpty(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := FormatSARIF(&buf, nil, ""); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Runs []struct {
			Results []any `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatal(err)
	}
	if len(log.Runs) != 1 || log.Runs[0].Results == nil {
		t.Fatalf("empty run must encode results as [], got %s", buf.String())
	}
}

func TestFormatText(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := FormatText(&buf, sampleDiags(), "/mod"); err != nil {
		t.Fatal(err)
	}
	want := "internal/core/shard.go:42:7: [lockheld] channel send while holding s.mu\n" +
		"internal/sim/sim.go:9:2: [walltime] time.Now: wall-clock calls are forbidden\n"
	if buf.String() != want {
		t.Fatalf("text output:\n%s\nwant:\n%s", buf.String(), want)
	}
}
