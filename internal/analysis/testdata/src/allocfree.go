// Allocfree golden fixture. Compiled at package path internal/wire so
// the default config's DecodeInto hot-path root resolves inside the
// fixture module; the call-graph walk must reach the helpers it calls
// and flag their allocation sites, while functions outside the closure
// stay unreported.
package wire

var retained [][]byte

// DecodeInto is a pinned allocfree root (see Config.AllocFreeRoots).
func DecodeInto(dst, buf []byte) []byte {
	dst = append(dst, buf...) // self-append: amortized, not a finding
	stash(buf)
	var seen set[byte]
	seen.add(buf[0])
	return label(buf)
}

// set is generic: a call on an instantiation (set[byte]) must resolve to
// the declared method, or the walk stops at the call and misses it.
type set[T comparable] struct{ m map[T]bool }

func (s *set[T]) add(v T) {
	if s.m == nil {
		s.m = make(map[T]bool) // want "\[allocfree\] make\(…\) allocates in \(set\[T\]\).add \(hot path via DecodeInto\)"
	}
	s.m[v] = true
}

func stash(buf []byte) {
	c := make([]byte, len(buf)) // want "\[allocfree\] make\(…\) allocates in stash \(hot path via DecodeInto\)"
	copy(c, buf)
	retained = append(retained, c)
}

func label(buf []byte) []byte {
	s := string(buf) // want "\[allocfree\] string conversion copies and allocates in label"
	if len(s) > 8 {
		return buf
	}
	//dbo:vet-ignore allocfree fixture proves a reasoned exception survives inside the hot-path closure
	return []byte{0}
}

// coldDecode is NOT reachable from any pinned root: its allocations
// are out of contract and must not be reported.
func coldDecode() []int {
	return make([]int, 4)
}
