package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one directory of Go files, parsed and type-checked. Only
// the files the compiler would see are loaded: _test.go files and files
// the build constraints exclude are not part of it.
type Package struct {
	Path  string // module-relative dir path ("internal/core"; "." for the root)
	Fset  *token.FileSet
	Files []*ast.File
	Src   map[string][]byte // filename → source
	Types *types.Package
}

// Module is one Go module, loaded the only way dbo-vet loads anything:
// every package parsed into a shared FileSet and type-checked with the
// stdlib go/types checker (no x/tools), module imports from the module's
// own source, everything else from the compiler's export data. A package
// that does not parse or type-check fails the load.
type Module struct {
	Root string // absolute module root (dir of go.mod); "" for CheckSource
	Path string // module path from go.mod ("dbo")
	Fset *token.FileSet
	Pkgs []*Package  // every package in the module, sorted by Path
	Info *types.Info // type information for every file of every package

	Graph *CallGraph

	byRel    map[string]*Package
	checking map[string]bool // cycle guard
	failed   error           // the first package failure, the one the others follow from
	std      types.Importer
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

var moduleLineRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// LoadModule parses and type-checks every package under root.
// Directories named testdata or vendor, and dot/underscore directories,
// are skipped. It needs the go command and a build cache that holds the
// standard library (any `go build` of the module leaves one).
func LoadModule(root string) (*Module, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: reading go.mod: %w", err)
	}
	mm := moduleLineRe.FindSubmatch(gomod)
	if mm == nil {
		return nil, fmt.Errorf("analysis: no module line in %s/go.mod", root)
	}

	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
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

	fset := token.NewFileSet()
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		pkg, err := parseDir(dir, filepath.ToSlash(rel), fset)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return newModule(root, string(mm[1]), fset, pkgs)
}

// CheckSource loads one in-memory file as the single package pkgPath of
// a module named "dbo" and runs the analyzer suite over it. Whatever
// the bytes, it returns findings or an error and never panics:
// FuzzVetParse drives this entry point.
func CheckSource(filename, pkgPath string, src []byte, cfg *Config) ([]Diagnostic, error) {
	pkg := &Package{Path: pkgPath, Fset: token.NewFileSet(), Src: make(map[string][]byte)}
	if err := pkg.addFile(filename, src); err != nil {
		return nil, err
	}
	m, err := newModule("", "dbo", pkg.Fset, []*Package{pkg})
	if err != nil {
		return nil, err
	}
	return m.Run(cfg, nil), nil
}

// matchesAny reports whether the module-relative dir rel is selected by
// any pattern. Patterns follow the go tool's shape: "./..." for the
// whole module, "./dir/..." for a subtree, "./dir" (or "dir") for one
// directory.
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
	pkg := &Package{Path: rel, Fset: fset, Src: make(map[string][]byte)}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
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
		if err := pkg.addFile(full, src); err != nil {
			return nil, err
		}
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	return pkg, nil
}

func (p *Package) addFile(filename string, src []byte) error {
	f, err := parser.ParseFile(p.Fset, filename, src, parser.ParseComments)
	if err != nil {
		return fmt.Errorf("package %s does not parse: %w", p.Path, err)
	}
	p.Src[filename] = src
	p.Files = append(p.Files, f)
	return nil
}

// newModule type-checks pkgs in dependency order and builds the call
// graph. The first package that fails fails the module.
func newModule(root, path string, fset *token.FileSet, pkgs []*Package) (*Module, error) {
	m := &Module{
		Root: root,
		Path: path,
		Fset: fset,
		Pkgs: pkgs,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Implicits:  make(map[ast.Node]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
			Instances:  make(map[*ast.Ident]types.Instance),
		},
		byRel:    make(map[string]*Package, len(pkgs)),
		checking: make(map[string]bool),
		std:      importer.ForCompiler(fset, "gc", openExport),
	}
	external := make(map[string]bool)
	for _, p := range pkgs {
		m.byRel[p.Path] = p
		for _, f := range p.Files {
			for _, imp := range f.Imports {
				ipath, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if _, own := m.relOf(ipath); !own {
					external[ipath] = true
				}
			}
		}
	}
	if err := resolveExports(root, external); err != nil {
		return nil, err
	}
	for _, p := range pkgs {
		if _, err := m.check(p.Path); err != nil {
			return nil, m.failed
		}
	}
	m.Graph = buildCallGraph(m)
	return m, nil
}

// relOf maps an import path inside the module to its package's
// module-relative directory.
func (m *Module) relOf(importPath string) (rel string, ok bool) {
	if importPath == m.Path {
		return ".", true
	}
	return strings.CutPrefix(importPath, m.Path+"/")
}

// check type-checks one module package, once.
func (m *Module) check(rel string) (tp *types.Package, err error) {
	pkg := m.byRel[rel]
	if pkg == nil {
		return nil, fmt.Errorf("no package %q in module %s", rel, m.Path)
	}
	if pkg.Types != nil {
		return pkg.Types, nil
	}
	if m.checking[rel] {
		return nil, fmt.Errorf("import cycle through %s", rel)
	}
	m.checking[rel] = true
	defer delete(m.checking, rel)

	// go/types panics on some malformed (but parseable) trees; the
	// loader must fail, never crash — FuzzVetParse drives this path.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("go/types panicked: %v", r)
		}
		if err != nil {
			tp, err = nil, fmt.Errorf("package %s does not type-check: %w", rel, err)
			if m.failed == nil {
				m.failed = err
			}
		}
	}()

	importPath := m.Path
	if rel != "." {
		importPath += "/" + rel
	}
	// With no Error hook, Check stops at and returns the first error.
	conf := types.Config{Importer: m}
	if tp, err = conf.Check(importPath, m.Fset, pkg.Files, m.Info); err == nil {
		pkg.Types = tp
	}
	return tp, err
}

// Import makes the module its own type-checker's importer: import paths
// inside the module resolve through the module's source, everything else
// through export data.
func (m *Module) Import(path string) (*types.Package, error) {
	if rel, ok := m.relOf(path); ok {
		return m.check(rel)
	}
	return m.std.Import(path)
}

// exportFiles maps a non-module import path to the file holding its
// compiler export data, "" when the go command has none. It is
// process-wide so that each path is asked about once however many
// modules a process loads (the tests and the fuzzer load hundreds).
var exportFiles = struct {
	sync.Mutex
	m map[string]string
}{m: make(map[string]string)}

// resolveExports asks the go command, in one call, where the export data
// of every not yet known path lives. dir is where the command runs, so a
// module's own go.mod applies.
func resolveExports(dir string, paths map[string]bool) error {
	exportFiles.Lock()
	defer exportFiles.Unlock()
	var ask []string
	for p := range paths {
		if _, known := exportFiles.m[p]; !known && listable(p) {
			ask = append(ask, p)
		}
	}
	if len(ask) == 0 {
		return nil
	}
	sort.Strings(ask)
	cmd := exec.Command("go", append([]string{"list", "-e", "-export", "-f", "{{.ImportPath}}={{.Export}}", "--"}, ask...)...)
	cmd.Dir = dir
	// Export data comes from the build cache or a local compile; a path
	// the go command would have to fetch is one dbo-vet cannot import.
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("analysis: go list -export (dbo-vet needs the go command): %w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	for _, p := range ask {
		exportFiles.m[p] = ""
	}
	for _, line := range strings.Split(string(out), "\n") {
		if p, file, ok := strings.Cut(line, "="); ok {
			if _, asked := exportFiles.m[p]; asked {
				exportFiles.m[p] = file
			}
		}
	}
	return nil
}

// listable reports whether `go list` reads path as one importable
// package. The reserved names and "..." patterns expand to sets — "std"
// alone would compile the whole standard library — a relative path names
// a directory, cmd/ holds only commands and their internals (asking
// would compile the toolchain), and "unsafe" and "C" have no export data.
func listable(path string) bool {
	switch path {
	case "", "unsafe", "C", "all", "std", "cmd", "main", "tool":
		return false
	}
	return !strings.Contains(path, "...") && !strings.HasPrefix(path, "cmd/") &&
		!build.IsLocalImport(path) && !filepath.IsAbs(path) && !strings.ContainsAny(path, "=\n")
}

// openExport is the gc importer's lookup function.
func openExport(path string) (io.ReadCloser, error) {
	exportFiles.Lock()
	file := exportFiles.m[path]
	exportFiles.Unlock()
	if file == "" {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(file)
}
