// Fixture for rule atomicmix, analyzed as package path
// "internal/core/cx" inside a compiled mini-module (the rule keys on
// variable object identity).
package cx

import "sync/atomic"

type counters struct {
	mixed int64 // updated atomically in bump, read plainly in read
	clean int64 // every access atomic
}

var hits int64 // package-level: same rule

func (c *counters) bump() {
	atomic.AddInt64(&c.mixed, 1)
	atomic.AddInt64(&c.clean, 1)
	atomic.AddInt64(&hits, 1)
}

func (c *counters) read() int64 {
	return c.mixed // want "atomicmix.*mixed"
}

func (c *counters) readClean() int64 {
	return atomic.LoadInt64(&c.clean)
}

func resetHits() {
	hits = 0 // want "atomicmix.*hits"
}

// locals copied out of an atomic load are fine: the shared word itself
// is still only touched atomically.
func (c *counters) snapshot() int64 {
	v := atomic.LoadInt64(&c.clean)
	return v + 1
}
