package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzVetParse feeds arbitrary bytes through the whole driver path
// (parse → export-data lookup → type-check → call graph → every rule →
// ignore filter). The invariant is simply that it never panics: dbo-vet
// runs in CI on whatever the tree holds, including half-written code,
// and go/types is known to panic on some parseable trees — the loader
// must turn that into an error. Input that does not parse or type-check
// stops at the loader; the rules see the rest.
func FuzzVetParse(f *testing.F) {
	fixtures, _ := filepath.Glob(filepath.Join("testdata", "src", "*.go"))
	for _, fx := range fixtures {
		if src, err := os.ReadFile(fx); err == nil {
			f.Add(src)
		}
	}
	f.Add([]byte("package p\nfunc f() { go go go }"))
	f.Add([]byte("package p\nimport \"time\"\nfunc f() { time.Now( }"))
	f.Add([]byte("//dbo:vet-ignore"))
	f.Add([]byte("package p\n//dbo:vet-ignore walltime \xff\xfe"))
	f.Add([]byte("package p\ntype t struct { Ns int64 }\nfunc (x t) f(mu sync.Mutex) { mu.Lock(); <-c"))
	f.Add([]byte(""))
	f.Add([]byte("\x00\x01\x02"))
	// Loader seeds: compiles clean, a type error, a module-internal
	// import (no such package in a single-file module), recursion to
	// exercise the call-graph depth bound, and channel plumbing.
	f.Add([]byte("package p\nimport \"sync/atomic\"\nvar n int64\nfunc f() int64 { atomic.AddInt64(&n, 1); return n }"))
	f.Add([]byte("package p\nfunc f() { _ = undefined }"))
	f.Add([]byte("package p\nimport \"dbo/internal/market\"\nvar c market.DeliveryClock"))
	f.Add([]byte("package p\nimport \"sync\"\ntype q struct{ mu sync.Mutex; ch chan int }\nfunc (x *q) a() { x.b() }\nfunc (x *q) b() { x.a(); x.ch <- 1 }\nfunc (x *q) c() { x.mu.Lock(); x.a(); x.mu.Unlock() }"))
	f.Add([]byte("package p\ntype e struct{ open bool; ch chan int }\nfunc (x *e) s() { x.ch <- 1 }\nfunc (x *e) r() { if !x.open { return }; <-x.ch }\nfunc mk() *e { return &e{ch: make(chan int)} }"))
	// Dataflow-rule seeds: pool Get/Put shapes for the poolowner CFG
	// walk (use-after-Put, branchy maybe-Put, alias copy, a pool whose
	// type name matches the default bucketQueue config under
	// internal/core), and nested AB/BA locking for the lockorder graph.
	f.Add([]byte("package core\ntype bucketQueue struct{ free []*int }\nfunc (q *bucketQueue) newBucket() *int { return nil }\nfunc (q *bucketQueue) recycle(b *int) {}\nfunc f(q *bucketQueue) { b := q.newBucket(); q.recycle(b); _ = *b }"))
	f.Add([]byte("package p\ntype pool struct{}\nfunc (pool) Get() *int { return nil }\nfunc (pool) Put(*int) {}\nfunc f(p pool, c bool) { t := p.Get(); u := t; if c { p.Put(u) }; _ = *t; p.Put(t) }"))
	f.Add([]byte("package p\nimport \"sync\"\nvar a, b sync.Mutex\nfunc f() { a.Lock(); b.Lock(); b.Unlock(); a.Unlock() }\nfunc g() { b.Lock(); a.Lock(); a.Unlock(); b.Unlock() }"))
	f.Add([]byte("package p\nimport \"sync\"\ntype s struct{ mu, mv sync.Mutex }\nfunc (x *s) f() { x.mu.Lock(); defer x.mu.Unlock(); x.g() }\nfunc (x *s) g() { x.mv.Lock(); x.mu.Lock(); x.mu.Unlock(); x.mv.Unlock() }"))
	f.Add([]byte("package p\ntype pool struct{}\nfunc (pool) Get() *int { return nil }\nfunc (pool) Put(*int) {}\nfunc f(p pool) {\nloop:\n\tfor {\n\t\tt := p.Get()\n\t\tselect {\n\t\tdefault:\n\t\t\tp.Put(t)\n\t\t\tcontinue loop\n\t\t}\n\t}\n}"))
	// Goroutine and channel shapes: an orphan receive, a double close and
	// send after close, a spawned closure and method value, and a
	// multi-comm select (detsource's business on a deterministic surface).
	f.Add([]byte("package p\nfunc f() { ch := make(chan int); go func() { <-ch }() }"))
	f.Add([]byte("package p\nfunc f() { ch := make(chan int, 1); close(ch); ch <- 1; close(ch) }"))
	f.Add([]byte("package p\nfunc f() { ch := make(chan int); g := func() { ch <- 1 }; go g(); <-ch }"))
	f.Add([]byte("package p\ntype h struct{ in chan int }\nfunc (x *h) run() { for v := range x.in { _ = v } }\nfunc f(x *h) { r := x.run; go r(); x.in <- 1 }"))
	f.Add([]byte("package p\nvar m = map[int]chan int{}\nfunc f(a, b chan int, k int) int {\n\tm[k] = a\n\tselect {\n\tcase v := <-a:\n\t\treturn v\n\tcase v := <-b:\n\t\treturn v\n\t}\n}"))

	// What the loader has tripped over before or must refuse: a file the
	// build excludes (PR 17), a method of an instantiated generic type
	// (PR 16), an import that names nothing, the reserved name that would
	// expand to the whole standard library, and unsafe, which has no
	// export data.
	f.Add([]byte("//go:build ignore\n\npackage p\nfunc f() { _ = undefined }"))
	f.Add([]byte("package p\ntype s[T any] struct{ v T }\nfunc (x *s[T]) get() T { return x.v }\nfunc f() int { return (&s[int]{}).get() }"))
	f.Add([]byte("package p\nimport \"no/such/pkg\"\nvar _ = pkg.X"))
	f.Add([]byte("package p\nimport _ \"std\"\nimport _ \"./rel\"\nimport _ \"a/...\""))
	f.Add([]byte("package p\nimport \"unsafe\"\nvar n = unsafe.Sizeof(0)"))

	f.Fuzz(func(t *testing.T, src []byte) {
		// Two package paths: one rule-scoped, one allowlisted — both
		// must be panic-free whatever the bytes.
		_, _ = CheckSource("fuzz.go", "internal/core", src, Default())
		_, _ = CheckSource("fuzz.go", "cmd/fuzz", src, Default())
	})
}
