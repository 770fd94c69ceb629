package market

// TradePool is a free list of Trade structs for allocation-free steady
// state on the tag→enqueue→release path. It is deliberately a plain
// slice rather than a sync.Pool: sync.Pool may be emptied by any GC
// cycle, which makes testing.AllocsPerRun budgets flaky, and the hot
// paths that reuse trades are single-goroutine event loops anyway.
//
// Ownership rule: a Trade is owned by exactly one stage at a time —
// producer (fills it in), queue (holds it), or the Forward callback
// (last touch). Only the final consumer calls Put, and Put zeroes the
// struct, so a double-put would require two final consumers of the
// same pointer — a bug the differential oracle's release-order check
// would surface as a duplicated (MP, Seq) key.
type TradePool struct {
	free []*Trade
}

// maxPoolSize bounds the free list so a transient backlog does not pin
// its high-water mark of trades forever.
const maxPoolSize = 1 << 12

// Get returns a zeroed Trade, reusing a pooled one when available.
func (p *TradePool) Get() *Trade {
	if n := len(p.free); n > 0 {
		t := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return t
	}
	//dbo:vet-ignore allocfree pool-empty refill — the documented cold path; the warm pool is what the benches measure
	return &Trade{}
}

// Put returns a Trade to the pool. The caller must not touch t again.
func (p *TradePool) Put(t *Trade) {
	*t = Trade{}
	if len(p.free) < maxPoolSize {
		p.free = append(p.free, t)
	}
}

// Len reports the number of pooled trades (tests).
func (p *TradePool) Len() int { return len(p.free) }

// TradeArena hands out Trades cut from fixed-size chunks, for producers
// whose trades have no last consumer to Put them (a retained log, a
// scoring table). A slot is never reused, so a pointer New returned
// stays valid and unchanged for as long as anyone holds it, and the GC
// frees a chunk once none of its trades is referenced. It costs one
// allocation per arenaChunk trades instead of one per trade. The zero
// value is ready to use; like TradePool it is for one goroutine.
type TradeArena struct {
	chunk []Trade // the current chunk's slots not yet handed out
}

// arenaChunk is the number of trades one chunk holds.
const arenaChunk = 512

// New returns a zeroed Trade that no other New call returns.
func (a *TradeArena) New() *Trade {
	if len(a.chunk) == 0 {
		//dbo:vet-ignore allocfree chunk refill — one allocation per 512 trades, the arena's whole cost; the per-trade budget tests pin it
		a.chunk = make([]Trade, arenaChunk)
	}
	t := &a.chunk[0]
	a.chunk = a.chunk[1:]
	return t
}
