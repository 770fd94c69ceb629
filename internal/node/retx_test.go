package node

import (
	"net"
	"testing"
	"time"

	"dbo/internal/wire"
)

// TestHostileRetxDoesNotKillCES sends retransmission requests that an
// unvalidating event loop panics on — From 0 (index −1), a 2^62-point
// range (slice capacity), an inverted range — as raw datagrams to a
// live CES, then requires it to keep forwarding trades.
func TestHostileRetxDoesNotKillCES(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster test needs real time")
	}
	const nMP, ticks = 2, 6
	ces, _ := startCluster(t, nMP, ticks)
	waitForward(t, ces, 1, 10*time.Second) // points exist, the loop is running

	conn, err := net.DialUDP("udp", nil, ces.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, r := range []wire.Retx{
		{MP: 1, From: 0, To: 3},
		{MP: 1, From: 1, To: 1 << 62},
		{MP: 1, From: 3, To: 2},
	} {
		if _, err := conn.Write(wire.AppendRetx(nil, r)); err != nil {
			t.Fatal(err)
		}
	}

	before := len(ces.Forwarded())
	deadline := time.Now().Add(10 * time.Second)
	for ces.Metrics().Counter("retx_requests").Value() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("CES never saw the three requests")
		}
		time.Sleep(time.Millisecond)
	}
	if got := ces.Metrics().Counter("retx_rejected").Value(); got != 2 {
		t.Errorf("retx_rejected = %d, want 2 (From 0 and the inverted range; the oversized one is clamped)", got)
	}
	if before == nMP*ticks {
		t.Fatal("every trade was forwarded before the datagrams landed; the test proved nothing")
	}
	waitForward(t, ces, nMP*ticks, 10*time.Second)
}
