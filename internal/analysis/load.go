package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/scanner"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed directory of Go files. A directory's ordinary
// and external-test files are lumped into one Package: the type-aware
// loader (typecheck.go) type-checks only the non-test files, and every
// analyzer falls back to syntactic mode for files without type info.
type Package struct {
	Path  string // module-relative dir path ("internal/core"; "." for the root)
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Src   map[string][]byte // filename → source

	// ParseErrors carries syntax errors as rule "parse" diagnostics;
	// partial ASTs are still analyzed.
	ParseErrors []Diagnostic
}

// ModuleRoot walks up from dir to the nearest go.mod.
func ModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		abs = parent
	}
}

// LoadModule parses every package under root that matches one of the
// patterns. Patterns follow the go tool's shape: "./..." for the whole
// module, "./dir/..." for a subtree, "./dir" (or "dir") for one
// directory. Directories named testdata or vendor, and dot/underscore
// directories, are skipped.
func LoadModule(root string, patterns []string) ([]*Package, error) {
	return loadModule(root, patterns, token.NewFileSet())
}

// loadModule is LoadModule with a caller-supplied FileSet, so the
// type-aware loader can position every package — and the stdlib
// packages the source importer pulls in — in one coordinate space.
func loadModule(root string, patterns []string, fset *token.FileSet) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		rel = filepath.ToSlash(rel)
		if !matchesAny(rel, patterns) {
			continue
		}
		pkg, err := parseDir(dir, rel, fset)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// matchesAny reports whether the module-relative dir rel is selected by
// any pattern.
func matchesAny(rel string, patterns []string) bool {
	for _, pat := range patterns {
		pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
		switch {
		case pat == "..." || pat == "":
			return true
		case strings.HasSuffix(pat, "/..."):
			base := strings.TrimSuffix(pat, "/...")
			if rel == base || strings.HasPrefix(rel, base+"/") {
				return true
			}
		case rel == pat:
			return true
		case pat == "." && rel == ".":
			return true
		}
	}
	return false
}

// parseDir parses one directory; nil if it holds no Go files.
func parseDir(dir, rel string, fset *token.FileSet) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Path: rel, Dir: dir, Fset: fset, Src: make(map[string][]byte)}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		// A file the build excludes here (//go:build, _GOOS suffixes) is
		// not part of the package the compiler sees; with its
		// counterpart it would not even type-check.
		if match, err := build.Default.MatchFile(dir, name); err == nil && !match {
			continue
		}
		full := filepath.Join(dir, name)
		src, err := os.ReadFile(full)
		if err != nil {
			return nil, err
		}
		pkg.addFile(full, src)
	}
	if len(pkg.Files) == 0 && len(pkg.ParseErrors) == 0 {
		return nil, nil
	}
	return pkg, nil
}

// addFile parses one source file into the package, recording syntax
// errors as diagnostics and keeping any partial AST.
func (p *Package) addFile(filename string, src []byte) {
	p.Src[filename] = src
	f, err := parser.ParseFile(p.Fset, filename, src, parser.ParseComments)
	if err != nil {
		p.ParseErrors = append(p.ParseErrors, parseDiagnostics(filename, err)...)
	}
	if f != nil {
		p.Files = append(p.Files, f)
	}
}

// parseDiagnostics converts a parser error into "parse" diagnostics
// (only the first few; a mangled file otherwise floods the report).
func parseDiagnostics(filename string, err error) []Diagnostic {
	const maxErrs = 3
	if list, ok := err.(scanner.ErrorList); ok {
		var out []Diagnostic
		for i, e := range list {
			if i == maxErrs {
				break
			}
			out = append(out, Diagnostic{Pos: e.Pos, Rule: "parse", Msg: e.Msg})
		}
		return out
	}
	return []Diagnostic{{Pos: token.Position{Filename: filename, Line: 1, Column: 1}, Rule: "parse", Msg: err.Error()}}
}

// CheckSource runs the full analyzer suite over one in-memory file, as
// if it lived in package pkgPath. This is the entry point shared by the
// golden-file tests and FuzzVetParse; it must never panic, whatever the
// bytes.
func CheckSource(filename, pkgPath string, src []byte, cfg *Config) []Diagnostic {
	pkg := &Package{Path: pkgPath, Fset: token.NewFileSet(), Src: make(map[string][]byte)}
	pkg.addFile(filename, src)
	return RunPackage(pkg, cfg)
}
