package node

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"dbo/internal/core"
	"dbo/internal/wire"
)

// NewCES binds a UDP socket and a TCP listener; a Start that fails must
// leave neither behind, nor any other descriptor: the loop's are opened
// when it runs.
func TestStartFailureClosesBothListeners(t *testing.T) {
	for name, mps := range map[string][]MPAddr{
		"no participants": nil,
		"id span":         {{ID: 1, Addr: "127.0.0.1:9"}, {ID: 1 + maxIDSpan, Addr: "127.0.0.1:9"}},
		"bad address":     {{ID: 1, Addr: "not an address"}},
	} {
		t.Run(name, func(t *testing.T) {
			before := openFDs()
			ces, err := NewCES(CESConfig{
				Listen: "127.0.0.1:0", TickInterval: time.Millisecond, Ticks: 1,
				Delta: time.Millisecond, Tau: time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer ces.Stop()
			if err := ces.Start(mps); err == nil {
				t.Fatal("Start succeeded")
			}
			if conn, err := net.DialTimeout("tcp", ces.TCPAddr().String(), time.Second); err == nil {
				conn.Close()
				t.Error("the TCP listener still accepts after a failed Start")
			}
			if err := ces.ep.Write([]byte{0}, ces.Addr().AddrPort()); err == nil {
				t.Error("the UDP socket still sends after a failed Start")
			}
			if after := openFDs(); after != before {
				t.Errorf("%d descriptors open after a failed Start, %d before NewCES", after, before)
			}
		})
	}
}

// openFDs counts the process's open descriptors; -1 without procfs, where
// the tests' other checks still stand.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// egressCounts reads the egress counters on the loop, between two turns:
// every queue is empty there, so the counts are of whole sends.
func egressCounts(c *CES) (fills, reports, writes int64) {
	ch := make(chan [3]int64, 1)
	c.loop.Post(func() {
		ch <- [3]int64{c.m.executions.Value(), c.m.execReportsSent.Value(), c.m.egressWrites.Value()}
	})
	v := <-ch
	return v[0], v[1], v[2]
}

// The wire contract is what it was: however many fills one loop turn
// makes, and however few sends carry them, a participant reading its
// socket with nothing but ReadFromUDPAddrPort gets one whole execution
// report per datagram, every one of them, in the order they were made.
func TestSegmentedFillsArriveOnePerDatagram(t *testing.T) {
	if testing.Short() {
		t.Skip("live ingest needs real sockets and real time")
	}
	var mu sync.Mutex
	var got, lastSeq int64
	var bad string
	var m wire.Msg // the reader goroutine's own
	f := startIngestFleetRead(t, 4, func(b []byte) {
		if len(b) == 0 || b[0] != wire.TExec {
			return // market data
		}
		mu.Lock()
		defer mu.Unlock()
		got++
		switch err := wire.DecodeInto(&m, b); {
		case bad != "":
		case len(b) != wire.ExecSize:
			bad = fmt.Sprintf("execution report %d is a datagram of %d bytes, want %d", got, len(b), wire.ExecSize)
		case err != nil:
			bad = fmt.Sprintf("execution report %d: %v", got, err)
		case int64(m.Exec.Seq) <= lastSeq:
			bad = fmt.Sprintf("execution report %d has seq %d after %d", got, m.Exec.Seq, lastSeq)
		}
		lastSeq = int64(m.Exec.Seq)
	})
	// Only id 1 trades, so each burst of 256 is released whole by the
	// heartbeat round: 128 fills in one turn, two full queues.
	f.senders = 1
	const bursts, burst = 10, 256
	f.run(t, bursts, burst)

	fills, reports, writes := egressCounts(f.ces)
	if fills < bursts*burst/2 {
		t.Fatalf("%d fills from %d crossing trades: the workload did not cross", fills, bursts*burst)
	}
	arrived := func() int64 { mu.Lock(); defer mu.Unlock(); return got }
	for deadline := time.Now().Add(5 * time.Second); arrived() < fills && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // a datagram too many would be here by now
	mu.Lock()
	defer mu.Unlock()
	if bad != "" {
		t.Fatal(bad)
	}
	if got != fills {
		t.Fatalf("%d execution-report datagrams arrived for %d fills", got, fills)
	}
	if reports != fills {
		t.Fatalf("exec_reports_sent = %d for %d fills", reports, fills)
	}
	off := f.ces.Metrics().Snapshot()["gso_disabled"]
	t.Logf("gso_disabled %d, %d fills in %d egress writes: %.1f fills per write", off, fills, writes, float64(fills)/float64(writes))
	switch {
	case off == 0 && writes > fills/4:
		t.Fatalf("%d egress writes for %d fills with segmentation on, want at most a quarter", writes, fills)
	case off == 1 && writes != fills:
		t.Fatalf("%d egress writes for %d fills with segmentation off, want one each", writes, fills)
	case off == 1 && runtime.GOOS == "linux":
		t.Log("this Linux host refused UDP_SEGMENT: the egress queues go out one syscall per record")
	}
}

// A queue is one run of equal-size records: a retransmitted range in the
// middle of a turn's fills goes out between them, not after, and a queue
// that fills up does not wait for the turn to end. The endpoint sees the
// records in the order the loop produced them.
func TestQueueFlushesOnSizeChangeAndCap(t *testing.T) {
	sock := newRawSocket(t)
	ces := startIngestCES(t, []string{sock.addr()}, nil)
	for deadline := time.Now().Add(5 * time.Second); ces.m.dataPoints.Value() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the exchange generated no market data")
		}
	}
	_, _, before := egressCounts(ces)

	// One turn's worth, produced on the loop as onForward and onMessage
	// would: 3 fills, points 1..2 again, then 70 more fills.
	const first, more = 3, 70
	fill := func(seq int) {
		ces.buf = wire.AppendExec(ces.buf[:0], wire.Exec{MakerOwner: 1, TakerOwner: 1, Seq: uint64(seq)})
		ces.report(0)
	}
	ces.loop.Post(func() {
		for seq := 1; seq <= first; seq++ {
			fill(seq)
		}
		ces.retransmit(core.RetxRequest{MP: 1, From: 1, To: 2})
		for seq := first + 1; seq <= first+more; seq++ {
			fill(seq)
		}
	})

	var want []string
	for seq := 1; seq <= first; seq++ {
		want = append(want, fmt.Sprint("exec ", seq))
	}
	want = append(want, "point 1", "point 2")
	for seq := first + 1; seq <= first+more; seq++ {
		want = append(want, fmt.Sprint("exec ", seq))
	}
	// The tick's own points keep arriving; they are not part of the
	// turn. Of the market data only what follows the first fill and
	// repeats an early id is the retransmission.
	buf := make([]byte, 2048)
	var m wire.Msg
	var got []string
	sock.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for len(got) < len(want) {
		n, _, err := sock.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			t.Fatalf("after %d of %d records: %v", len(got), len(want), err)
		}
		if err := wire.DecodeInto(&m, buf[:n]); err != nil {
			t.Fatal(err)
		}
		switch {
		case m.Type == wire.TExec:
			got = append(got, fmt.Sprint("exec ", m.Exec.Seq))
		case m.Type == wire.TMarketData && len(got) > 0 && m.Data.ID <= 2:
			got = append(got, fmt.Sprint("point ", m.Data.ID))
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d to arrive is %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}

	// Four sends: the fills before the points, the points, a full queue
	// of 64 mid-turn, the last 6 at the end of the turn.
	_, _, after := egressCounts(ces)
	wantWrites := int64(4)
	if ces.ep.GSODisabled() == 1 {
		wantWrites = first + 2 + more
	}
	if after-before != wantWrites {
		t.Fatalf("%d egress writes for the turn, want %d", after-before, wantWrites)
	}
}
