package analysis

import (
	"go/token"
	"strings"
)

// ignorePrefix is the escape hatch: "//dbo:vet-ignore <rule> <reason>".
const ignorePrefix = "//dbo:vet-ignore"

// directive is one parsed //dbo:vet-ignore comment.
type directive struct {
	pos    token.Position
	rule   string
	reason string
	target int // line whose diagnostics this directive covers
	used   bool
	bad    string // non-empty: malformed, with the reason why
}

// collectDirectives scans every comment in the package. A directive
// that trails code covers exactly its own line; a standalone directive
// covers exactly the next line — except that a run of consecutive
// standalone directives chains, all of them covering the first line
// after the run (so two rules firing on one statement can each be
// suppressed with its own reasoned directive). Matching is strictly by
// (file, line, rule): a directive never suppresses findings on any
// other line.
func collectDirectives(pkg *Package) []*directive {
	rules := RuleNames()
	var out []*directive
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if c == nil || !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				d := parseDirective(pkg, c.Text, pkg.Fset.Position(c.Slash), rules)
				out = append(out, d)
			}
		}
	}
	chainStandaloneRuns(out)
	return out
}

// chainStandaloneRuns retargets stacked standalone directives: when a
// standalone directive's target line holds another standalone directive
// in the same file, both must cover the code line below the whole run.
// Directives arrive in position order per file; walking bottom-up makes
// each retarget see the already-resolved directive beneath it.
func chainStandaloneRuns(dirs []*directive) {
	byLine := make(map[string]map[int]*directive)
	for _, d := range dirs {
		if d.target != d.pos.Line { // standalone: targets the next line
			m := byLine[d.pos.Filename]
			if m == nil {
				m = make(map[int]*directive)
				byLine[d.pos.Filename] = m
			}
			m[d.pos.Line] = d
		}
	}
	for i := len(dirs) - 1; i >= 0; i-- {
		d := dirs[i]
		if d.target == d.pos.Line {
			continue
		}
		if below, ok := byLine[d.pos.Filename][d.target]; ok {
			d.target = below.target
		}
	}
}

func parseDirective(pkg *Package, text string, pos token.Position, rules map[string]bool) *directive {
	d := &directive{pos: pos, target: pos.Line}
	if standaloneComment(pkg.Src[pos.Filename], pos) {
		d.target = pos.Line + 1
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
	fields := strings.Fields(rest)
	switch {
	case len(fields) == 0:
		d.bad = "missing rule and reason (want //dbo:vet-ignore <rule> <reason>)"
	case len(fields) == 1:
		d.bad = "missing reason: every suppression must say why"
	case !rules[fields[0]]:
		d.bad = "unknown rule " + quote(fields[0])
	default:
		d.rule = fields[0]
		d.reason = strings.TrimSpace(strings.TrimPrefix(rest, fields[0]))
	}
	return d
}

func quote(s string) string { return `"` + s + `"` }

// standaloneComment reports whether nothing but whitespace precedes the
// comment on its line (src may be nil for synthetic packages; then the
// directive is treated as trailing, the conservative choice).
func standaloneComment(src []byte, pos token.Position) bool {
	if src == nil || pos.Offset > len(src) {
		return false
	}
	start := pos.Offset - (pos.Column - 1)
	if start < 0 || start > pos.Offset {
		return false
	}
	for _, b := range src[start:pos.Offset] {
		if b != ' ' && b != '\t' {
			return false
		}
	}
	return true
}

// applyDirectives filters diags through the selected packages'
// directives. Matching diagnostics are dropped; malformed directives
// and directives that suppressed nothing become findings themselves —
// except that a directive naming a rule the current run disabled
// (Config.EnabledRules) is never reported unused: when CI gates a rule
// subset, the other rules' annotations must not turn into noise.
func applyDirectives(cfg *Config, dirs []*directive, diags []Diagnostic) []Diagnostic {
	if len(dirs) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, dg := range diags {
		suppressed := false
		for _, d := range dirs {
			if d.bad == "" && d.rule == dg.Rule &&
				d.pos.Filename == dg.Pos.Filename && d.target == dg.Pos.Line {
				d.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, dg)
		}
	}
	for _, d := range dirs {
		switch {
		case d.bad != "":
			kept = append(kept, Diagnostic{Pos: d.pos, Rule: "bad-ignore", Msg: d.bad})
		case !d.used && (cfg == nil || cfg.ruleEnabled(d.rule)):
			kept = append(kept, Diagnostic{
				Pos:  d.pos,
				Rule: "unused-ignore",
				Msg:  "//dbo:vet-ignore " + d.rule + " suppressed nothing; delete the stale directive",
			})
		}
	}
	return kept
}
