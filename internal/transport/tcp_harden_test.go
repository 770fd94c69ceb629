package transport

import (
	"net"
	"strings"
	"testing"
	"time"

	"dbo/internal/market"
	"dbo/internal/wire"
)

// bothReaders runs f against a server whose connections Serve's reader
// goroutines read, and against one whose connections a loop watches and
// drains (watchTCP); got carries each message, boxed.
func bothReaders(t *testing.T, f func(t *testing.T, srv *TCPServer, got chan any)) {
	for _, drain := range []bool{false, true} {
		t.Run(map[bool]string{false: "serve", true: "drain"}[drain], func(t *testing.T) {
			srv, got := listenTCP(t), make(chan any, 64)
			if drain {
				watchTCP(t, srv, func(m *wire.Msg) { got <- m.Value() })
			} else {
				go srv.Serve(func(v any, _ *net.UDPAddr) { got <- v })
			}
			f(t, srv, got)
		})
	}
}

// wantConnStats waits for the server to have counted clean and errored
// closes.
func wantConnStats(t *testing.T, srv *TCPServer, clean, errored int64) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if c, e := srv.ConnStats(); c == clean && e == errored {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("conn stats (%d, %d), want (%d, %d)", c, e, clean, errored)
		}
	}
}

// TestTCPOversizedFrameRejectedAtEncode is the regression test for the
// missing maxFrame check in writeFrame: a message whose encoding
// exceeds the frame limit must be refused locally — before the bytes
// hit the wire — leaving the connection healthy. A maximally padded
// probe is the one protocol message big enough to trip it.
func TestTCPOversizedFrameRejectedAtEncode(t *testing.T) {
	bothReaders(t, func(t *testing.T, srv *TCPServer, got chan any) {
		cli, err := DialTCP(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		err = cli.Send(wire.Probe{MP: 1, Seq: 1, Pad: make([]byte, wire.MaxProbePad)})
		if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
			t.Fatalf("oversized frame: Send = %v, want an encode-time rejection", err)
		}
		// The connection must still work: the poison frame never left.
		if err := cli.Send(market.Heartbeat{MP: 1}); err != nil {
			t.Fatal(err)
		}
		select {
		case v := <-got:
			if _, ok := v.(market.Heartbeat); !ok {
				t.Fatalf("got %T", v)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("connection dead after rejected frame")
		}
		wantConnStats(t, srv, 0, 0)
	})
}

// TestTCPLargeProbeWithinLimitTraverses pins the boundary from the
// other side: a probe padded to just under the frame limit goes through.
func TestTCPLargeProbeWithinLimitTraverses(t *testing.T) {
	bothReaders(t, func(t *testing.T, srv *TCPServer, got chan any) {
		cli, err := DialTCP(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		pad := 1<<16 - wire.ProbeHeaderSize // frame == maxFrame exactly
		if err := cli.Send(wire.Probe{MP: 2, Seq: 7, T1: 9, Pad: make([]byte, pad)}); err != nil {
			t.Fatal(err)
		}
		select {
		case v := <-got:
			p, ok := v.(wire.Probe)
			if !ok || p.MP != 2 || p.Seq != 7 || len(p.Pad) != pad {
				t.Fatalf("got %T %+v", v, v)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("probe at the frame limit not delivered")
		}
	})
}

// A peer hanging up between frames is a clean close, counted separately
// from errors; a corrupt prefix, or hanging up mid-frame, is an abnormal
// one.
func TestTCPCleanCloseCounted(t *testing.T) {
	bothReaders(t, func(t *testing.T, srv *TCPServer, got chan any) {
		cli, err := DialTCP(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if err := cli.Send(market.Heartbeat{MP: 1}); err != nil {
			t.Fatal(err)
		}
		<-got
		cli.Close()
		wantConnStats(t, srv, 1, 0)
	})
}

func TestTCPCorruptFrameCloseCounted(t *testing.T) {
	bothReaders(t, func(t *testing.T, srv *TCPServer, _ chan any) {
		writeRaw(t, srv, []byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}, false)
		wantConnStats(t, srv, 0, 1)
	})
}

func TestTCPTruncatedFrameIsError(t *testing.T) {
	bothReaders(t, func(t *testing.T, srv *TCPServer, _ chan any) {
		writeRaw(t, srv, []byte{40, 0, 0, 0, 1, 2, 3}, true) // a 40-byte frame announced, 3 bytes sent
		wantConnStats(t, srv, 0, 1)
	})
}

// writeRaw dials srv and writes b; then it hangs up, or leaves that to
// the test's end.
func writeRaw(t *testing.T, srv *TCPServer, b []byte, hangUp bool) {
	raw, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	if _, err := raw.Write(b); err != nil {
		t.Fatal(err)
	}
	if hangUp {
		raw.Close()
	}
}

func TestProberMonotoneAndRTT(t *testing.T) {
	t.Parallel()
	p := NewProber(4, 8)
	a := p.Next(100)
	b := p.Next(200)
	if a.Seq != 1 || b.Seq != 2 || a.MP != 4 || len(a.Pad) != 8 {
		t.Fatalf("probes %+v %+v", a, b)
	}
	// Reflector stamps T2/T3 on its own (arbitrary) clock; processing
	// time T3−T2 = 30 cancels out of the RTT.
	r := Reflect(a, 5000, 5030)
	if r.Seq != a.Seq || r.T1 != a.T1 || r.T2 != 5000 || r.T3 != 5030 {
		t.Fatalf("reply %+v", r)
	}
	if rtt := ProbeRTT(r, 180); rtt != 50 {
		t.Fatalf("rtt = %v, want (180−100)−(5030−5000) = 50", rtt)
	}
	// Corrupt stamps yielding negative RTT are flagged, not propagated.
	if rtt := ProbeRTT(Reflect(b, 0, 1000000), 210); rtt != -1 {
		t.Fatalf("negative rtt not rejected: %v", rtt)
	}
}
