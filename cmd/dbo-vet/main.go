// Command dbo-vet runs the repository's custom analyzer suite
// (internal/analysis) over the module and reports every violation of
// DBO's determinism, lock-discipline, clock-ordering, pool-ownership
// and zero-allocation invariants. It exits 1 when there are findings
// and 2 when the tree cannot be loaded: every package must parse and
// type-check (stdlib go/types; module imports from source, the rest
// from the compiler's export data, so it needs the go command and a
// build cache that holds the standard library), and the first one that
// does not is named on stderr.
//
// Rules: walltime, lockheld, clockcmp, naketime, errdrop, poolowner,
// atomicmix, allocfree, lockorder, detsource — `dbo-vet -describe`
// describes them; `-rules=a,b` runs a subset. A deliberate exception is
// annotated in place with `//dbo:vet-ignore <rule> <reason>` (strictly
// line-scoped); unused or malformed directives are findings themselves,
// and `grep -rn dbo:vet-ignore` is the inventory.
//
// Usage:
//
//	go run ./cmd/dbo-vet ./...
//	go run ./cmd/dbo-vet -format=sarif ./... > dbo-vet.sarif
//	go run ./cmd/dbo-vet -rules=poolowner,allocfree,lockorder ./internal/core
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"dbo/internal/analysis"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dbo-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	describe := fs.Bool("describe", false, "describe the analyzer rules and exit")
	rules := fs.String("rules", "", "comma-separated rule subset to run (default: all rules)")
	format := fs.String("format", "text", "output format: text or sarif")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: dbo-vet [-describe] [-rules=a,b] [-format=text|sarif] [packages]\n\npackages default to ./... (the whole module)\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *format != "text" && *format != "sarif" {
		fmt.Fprintf(stderr, "dbo-vet: unknown -format %q (want text or sarif)\n", *format)
		return 2
	}

	if *describe {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		for _, a := range analysis.AllModule() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	cfg := analysis.Default()
	if *rules != "" {
		valid := analysis.RuleNames()
		for _, r := range strings.Split(*rules, ",") {
			r = strings.TrimSpace(r)
			if r == "" {
				continue
			}
			if !valid[r] {
				var known []string
				for name := range valid {
					known = append(known, name)
				}
				sort.Strings(known)
				fmt.Fprintf(stderr, "dbo-vet: unknown rule %q in -rules (known: %s)\n", r, strings.Join(known, ", "))
				return 2
			}
			cfg.EnabledRules = append(cfg.EnabledRules, r)
		}
	}

	root, err := analysis.ModuleRoot(".")
	if err != nil {
		fmt.Fprintln(stderr, "dbo-vet:", err)
		return 2
	}
	mod, err := analysis.LoadModule(root)
	if err != nil {
		fmt.Fprintln(stderr, "dbo-vet:", err)
		return 2
	}
	diags := mod.Run(cfg, fs.Args())

	// Text output is rendered relative to the working directory so the
	// lines are clickable in an editor; sarif is rendered relative to
	// the module root so CI artifacts are machine-independent.
	if *format == "sarif" {
		err = analysis.FormatSARIF(stdout, diags, root)
	} else {
		base, _ := os.Getwd()
		err = analysis.FormatText(stdout, diags, base)
	}
	if err != nil {
		fmt.Fprintln(stderr, "dbo-vet:", err)
		return 2
	}

	if len(diags) > 0 {
		fmt.Fprintf(stderr, "dbo-vet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
