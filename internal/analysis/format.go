package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// Output formatting for dbo-vet. Two formats:
//
//	text  — file:line:col: [rule] message (the classic compiler shape,
//	        matched by the GitHub problem matcher in CI)
//	sarif — SARIF 2.1.0, one run with per-rule metadata, uploadable as
//	        a CI artifact and ingestible by code-scanning UIs
//
// Paths are rendered relative to base (usually the module root) so
// output is machine-independent; a diagnostic outside base keeps its
// absolute path.

// FormatText writes diagnostics in the classic file:line:col shape.
func FormatText(w io.Writer, diags []Diagnostic, base string) error {
	for _, d := range diags {
		if _, err := fmt.Fprintf(w, "%s:%d:%d: [%s] %s\n",
			relPath(base, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Rule, d.Msg); err != nil {
			return err
		}
	}
	return nil
}

// SARIF 2.1.0 — the minimal valid subset: schema/version, one run with
// a tool driver carrying rule metadata, and one result per diagnostic
// with a physical location. Struct names mirror the spec's property
// names.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId,omitempty"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// driverRules describes every rule id dbo-vet can emit, the analyzer
// rules plus the directive pseudo-rules, sorted by id so ruleIndex
// assignment is deterministic.
func driverRules() []sarifRule {
	rules := []sarifRule{
		{ID: "bad-ignore", ShortDescription: sarifMessage{Text: "malformed //dbo:vet-ignore directive"}},
		{ID: "unused-ignore", ShortDescription: sarifMessage{Text: "//dbo:vet-ignore directive suppresses nothing"}},
	}
	for _, a := range All() {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}})
	}
	for _, a := range AllModule() {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}})
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID < rules[j].ID })
	return rules
}

// FormatSARIF writes diagnostics as a SARIF 2.1.0 log. Every rule dbo-vet
// knows is declared in the driver metadata even when it produced no
// results, so code-scanning UIs can show the full rule set.
func FormatSARIF(w io.Writer, diags []Diagnostic, base string) error {
	rules := driverRules()
	index := make(map[string]int, len(rules))
	for i, r := range rules {
		index[r.ID] = i
	}

	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		idx, ok := index[d.Rule]
		if !ok {
			// A rule id the metadata doesn't know (future-proofing):
			// declare it on the fly.
			idx = len(rules)
			rules = append(rules, sarifRule{ID: d.Rule, ShortDescription: sarifMessage{Text: d.Rule}})
			index[d.Rule] = idx
		}
		results = append(results, sarifResult{
			RuleID:    d.Rule,
			RuleIndex: idx,
			Level:     "error",
			Message:   sarifMessage{Text: d.Msg},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{
						URI:       filepath.ToSlash(relPath(base, d.Pos.Filename)),
						URIBaseID: "SRCROOT",
					},
					Region: sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
		})
	}

	log := sarifLog{
		Schema:  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool: sarifTool{Driver: sarifDriver{
				Name:  "dbo-vet",
				Rules: rules,
			}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// relPath renders name relative to base when it lies beneath it.
func relPath(base, name string) string {
	if base == "" {
		return name
	}
	rel, err := filepath.Rel(base, name)
	if err != nil || strings.HasPrefix(rel, "..") {
		return name
	}
	return rel
}
