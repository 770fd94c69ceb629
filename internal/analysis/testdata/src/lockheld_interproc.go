// Fixture for the interprocedural half of rule lockheld, analyzed as
// package path "internal/node/lh" in a compiled mini-module. The lock
// section contains no channel operation of its own — only a call whose
// *callee* (two hops down) blocks on a channel send. Only the
// call-graph chase can see it (TestInterprocLockHeld checks the chain
// the diagnostic prints).
package lh

import "sync"

type queue struct {
	mu  sync.Mutex
	out chan int
	n   int
}

// emit blocks: out is unbuffered with no in-package receiver.
func (q *queue) emit(v int) {
	q.out <- v
}

// forward is the intermediate hop: publish → forward → emit.
func (q *queue) forward(v int) {
	q.emit(v)
}

func (q *queue) publish(v int) {
	q.mu.Lock()
	q.n++
	q.forward(v) // want "lockheld.*forward"
	q.mu.Unlock()
}

// tally only touches plain state on its whole (one-element) call chain:
// calling it under the lock is fine.
func (q *queue) bump() {
	q.n++
}

func (q *queue) record() {
	q.mu.Lock()
	q.bump()
	q.mu.Unlock()
}
