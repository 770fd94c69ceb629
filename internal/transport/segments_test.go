package transport

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// plainReceiver is a UDP socket read with nothing but the standard
// library: what any participant's socket sees of a segmented send.
func plainReceiver(t testing.TB) *net.UDPConn {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadBuffer(rcvBuf); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func sender(t testing.TB) *Endpoint {
	t.Helper()
	e, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// records is k records of seg bytes back to back, the i-th filled with
// byte(i) behind its index, so order and boundaries both show.
func records(k, seg int) []byte {
	b := make([]byte, 0, k*seg)
	for i := 0; i < k; i++ {
		r := bytes.Repeat([]byte{byte(i)}, seg)
		binary.BigEndian.PutUint16(r, uint16(i))
		b = append(b, r...)
	}
	return b
}

// expect reads the datagrams that b cut every seg bytes should arrive
// as, in order, and then requires the socket to be empty.
func expect(t *testing.T, conn *net.UDPConn, b []byte, seg int) {
	t.Helper()
	buf := make([]byte, 1<<16)
	for i := 0; len(b) > 0; i++ {
		want := b[:min(seg, len(b))]
		b = b[len(want):]
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("datagram %d: %v", i, err)
		}
		if !bytes.Equal(buf[:n], want) {
			t.Fatalf("datagram %d is %d bytes %x…, want %d bytes %x…", i, n, buf[:min(n, 4)], len(want), want[:min(len(want), 4)])
		}
	}
	conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if n, err := conn.Read(buf); err == nil {
		t.Fatalf("a datagram too many, %d bytes", n)
	}
}

// counts is what one call added to the endpoint's two egress counters.
func counts(e *Endpoint, call func()) (datagrams, syscalls int64) {
	s0, _, _ := e.Stats()
	w0 := e.Writes()
	call()
	s1, _, _ := e.Stats()
	return s1 - s0, e.Writes() - w0
}

// A segmented send arrives as one datagram per record, the bytes a loop
// over Write would have sent, and is counted as k datagrams in one
// syscall — or k syscalls where the platform cannot segment.
func TestWriteSegments(t *testing.T) {
	const seg = 49
	e, rx := sender(t), plainReceiver(t)
	to := rx.LocalAddr().(*net.UDPAddr).AddrPort()
	t.Logf("gso_disabled %d", e.GSODisabled())
	for _, tc := range []struct {
		name string
		b    []byte
		k    int64
	}{
		{"1", records(1, seg), 1},
		{"2", records(2, seg), 2},
		{"63", records(63, seg), 63},
		{"64", records(64, seg), 64},
		{"short last segment", records(3, seg)[:2*seg+10], 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			off := e.GSODisabled() == 1
			datagrams, syscalls := counts(e, func() {
				if err := e.WriteSegments(tc.b, seg, to); err != nil {
					t.Fatal(err)
				}
			})
			expect(t, rx, tc.b, seg)
			want := int64(1)
			if off {
				want = tc.k
			}
			if datagrams != tc.k || syscalls != want {
				t.Fatalf("counted %d datagrams in %d syscalls, want %d in %d", datagrams, syscalls, tc.k, want)
			}
		})
	}
	if e.GSODisabled() == 1 && runtime.GOOS == "linux" {
		t.Error("a Linux endpoint fell back to one syscall per datagram on well-formed sends")
	}

	for name, call := range map[string]func() error{
		"65 segments": func() error { return e.WriteSegments(records(65, seg), seg, to) },
		"zero size":   func() error { return e.WriteSegments(records(2, seg), 0, to) },
	} {
		datagrams, _ := counts(e, func() {
			if call() == nil {
				t.Errorf("%s: no error", name)
			}
		})
		if datagrams != 0 {
			t.Errorf("%s: %d datagrams sent by a rejected call", name, datagrams)
		}
	}
	expect(t, rx, nil, seg)

	// The whole process is counted: the send must not allocate whether or
	// not the size changes between calls.
	go func() {
		buf := make([]byte, 2048)
		rx.SetReadDeadline(time.Time{})
		for {
			if _, _, err := rx.ReadFromUDPAddrPort(buf); err != nil {
				return
			}
		}
	}()
	b := records(8, 54)
	if a := testing.AllocsPerRun(100, func() {
		e.WriteSegments(b[:8*49], 49, to)
		e.WriteSegments(b, 54, to)
	}); a != 0 {
		t.Errorf("%.2f allocations per pair of segmented sends, want 0", a)
	}
}

// With segmentation off the same bytes leave as k plain writes; and a
// send the kernel refuses is resent that way at once, after which the
// endpoint stays off.
func TestWriteSegmentsFallback(t *testing.T) {
	rx := plainReceiver(t)
	to := rx.LocalAddr().(*net.UDPAddr).AddrPort()

	t.Run("off", func(t *testing.T) {
		e := sender(t)
		e.gsoOff.Store(true)
		b := records(8, 49)
		datagrams, syscalls := counts(e, func() {
			if err := e.WriteSegments(b, 49, to); err != nil {
				t.Fatal(err)
			}
		})
		expect(t, rx, b, 49)
		if datagrams != 8 || syscalls != 8 {
			t.Fatalf("counted %d datagrams in %d syscalls, want 8 in 8", datagrams, syscalls)
		}
	})

	t.Run("refused", func(t *testing.T) {
		e := sender(t)
		if e.GSODisabled() == 1 {
			t.Skip("no segmentation offload here: nothing to refuse")
		}
		// Two segments of 40000 bytes are more than one send may carry
		// (65507), so the kernel refuses the call; each is a legal
		// datagram on its own.
		const big = 40000
		b := records(2, big)
		datagrams, syscalls := counts(e, func() {
			if err := e.WriteSegments(b, big, to); err != nil {
				t.Fatalf("the resend of a refused batch failed: %v", err)
			}
		})
		expect(t, rx, b, big)
		if datagrams != 2 || syscalls != 2 {
			t.Fatalf("counted %d datagrams in %d syscalls, want 2 in 2", datagrams, syscalls)
		}
		if e.GSODisabled() != 1 {
			t.Fatal("gso_disabled is 0 after a refused send")
		}
		small := records(4, 49)
		if _, syscalls := counts(e, func() { e.WriteSegments(small, 49, to) }); syscalls != 4 {
			t.Fatalf("a later send of 4 took %d syscalls: the latch did not hold", syscalls)
		}
		expect(t, rx, small, 49)
	})
}

// BenchmarkWriteSegments is one exec-report-sized datagram sent over
// loopback to a socket that is being drained, k to a call; ns/op is per
// datagram. The sender keeps at most a socket buffer's worth in flight.
func BenchmarkWriteSegments(b *testing.B) {
	for _, k := range []int{1, 8, 64} {
		b.Run(strconv.Itoa(k), func(b *testing.B) {
			e, rx := sender(b), plainReceiver(b)
			to := rx.LocalAddr().(*net.UDPAddr).AddrPort()
			var got atomic.Int64
			go func() {
				buf := make([]byte, 2048)
				for {
					if _, _, err := rx.ReadFromUDPAddrPort(buf); err != nil {
						return
					}
					got.Add(1)
				}
			}()
			batch := records(k, 49)
			b.ReportAllocs()
			b.ResetTimer()
			for sent := 0; sent < b.N; sent += k {
				for int64(sent)-got.Load() > 1024 {
					runtime.Gosched()
				}
				if err := e.WriteSegments(batch, 49, to); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(e.GSODisabled()), "gso_disabled")
		})
	}
}
