package transport

import (
	"testing"

	"dbo/internal/market"
	"dbo/internal/wire"
)

// Drain reads what is queued, at most its budget per call, in order; it
// skips and counts what does not decode, and it never waits: an empty
// or a closed socket ends it.
func TestDrainReadsQueuedDatagramsWithinItsBudget(t *testing.T) {
	a, b := pair(t)
	to := b.LocalAddr().AddrPort()
	const n = 10
	for i := 1; i <= n; i++ {
		if err := a.Write(wire.AppendTrade(nil, &market.Trade{MP: 1, Seq: market.TradeSeq(i)}), to); err != nil {
			t.Fatal(err)
		}
		if i == 5 {
			if err := a.Write([]byte{0xEE, 1, 2}, to); err != nil {
				t.Fatal(err)
			}
		}
	}
	var got []market.TradeSeq
	h := func(m *wire.Msg) { got = append(got, m.Trade.Seq) }
	if !b.Drain(h, 4) {
		t.Fatal("a drain that stopped at its budget of 4 with 11 queued reports no more")
	}
	if len(got) != 4 {
		t.Fatalf("a budget of 4 handed over %d messages", len(got))
	}
	for b.Drain(h, 4) {
	}
	if len(got) != n {
		t.Fatalf("%d of %d messages drained", len(got), n)
	}
	for i, seq := range got {
		if seq != market.TradeSeq(i+1) {
			t.Fatalf("message %d has seq %d: %v", i, seq, got)
		}
	}
	if _, received, bad := b.Stats(); received != n || bad != 1 {
		t.Fatalf("received %d, decode errors %d; want %d and 1", received, bad, n)
	}
	if b.RxErrors() != 0 {
		t.Fatalf("%d read errors on a healthy socket", b.RxErrors())
	}
	if b.Drain(h, 4) {
		t.Fatal("an empty socket reports more")
	}
	b.Close()
	if b.Drain(h, 4) {
		t.Fatal("a closed socket reports more")
	}
}

// Drain allocates nothing per datagram: the buffer, the Msg and the read
// callback are the endpoint's own.
func TestDrainZeroAlloc(t *testing.T) {
	a, b := pair(t)
	pkts, end := roundPackets()
	to := b.LocalAddr().AddrPort()
	handled := 0
	h := func(*wire.Msg) { handled++ }
	round := func() {
		for i := 0; i < msgRound; i++ {
			if err := a.Write(pkts[i%2], to); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Write(end, to); err != nil {
			t.Fatal(err)
		}
		for b.Drain(h, 16) {
		}
	}
	round()
	if n := testing.AllocsPerRun(20, round); n != 0 {
		t.Fatalf("%.2f allocations per round of %d datagrams drained, want 0", n, msgRound+1)
	}
	if want := 22 * (msgRound + 1); handled != want {
		t.Fatalf("%d of %d datagrams drained", handled, want)
	}
}
