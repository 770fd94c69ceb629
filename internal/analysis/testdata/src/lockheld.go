// Fixture for rule lockheld, analyzed as package path "internal/rt"
// (so walltime stays quiet).
package fixture

import (
	"sync"
	"time"
)

type registry struct {
	mu  sync.Mutex
	fns map[string]func() int64
}

// The PR-1 Registry.Snapshot deadlock shape: user callbacks invoked
// while the registry lock is held.
func (r *registry) snapshotBad() map[string]int64 {
	out := make(map[string]int64)
	r.mu.Lock()
	defer r.mu.Unlock()
	for n, fn := range r.fns {
		out[n] = fn() // want "lockheld.*func value fn"
	}
	return out
}

// The fixed shape: copy the callbacks out, release the lock, invoke.
func (r *registry) snapshotGood() map[string]int64 {
	out := make(map[string]int64)
	r.mu.Lock()
	fns := make(map[string]func() int64, len(r.fns))
	for n, fn := range r.fns {
		fns[n] = fn
	}
	r.mu.Unlock()
	for n, fn := range fns {
		out[n] = fn()
	}
	return out
}

type hooks struct {
	mu        sync.Mutex
	OnForward func(int)
	release   func(int)
}

func (h *hooks) bad(ch chan int, wg *sync.WaitGroup, cb func()) {
	h.mu.Lock()
	ch <- 1                      // want "lockheld.*channel send"
	<-ch                         // want "lockheld.*channel receive"
	wg.Wait()                    // want "lockheld.*Wait"
	cb()                         // want "lockheld.*func value cb"
	h.OnForward(3)               // want "lockheld.*OnForward"
	h.release(4)                 // want "lockheld.*release"
	time.Sleep(time.Millisecond) // want "lockheld.*time.Sleep"
	h.mu.Unlock()
	ch <- 2 // released: fine
	cb()
}

func (h *hooks) selectBad() {
	h.mu.Lock()
	select { // want "lockheld.*select"
	case v := <-make(chan int):
		_ = v
	default:
	}
	h.mu.Unlock()
}

func (h *hooks) goStmtFine(ch chan int) {
	h.mu.Lock()
	// Launching a goroutine does not block the critical section; the
	// literal's body runs outside it.
	go func() { ch <- 1 }()
	h.mu.Unlock()
}
