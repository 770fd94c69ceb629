package transport

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"dbo/internal/market"
)

func tcpPair(t *testing.T) (*TCPServer, *TCPClient, chan any) {
	t.Helper()
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan any, 1024)
	go srv.Serve(func(v any, from *net.UDPAddr) { got <- v })
	cli, err := DialTCP(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close(); srv.Close() })
	return srv, cli, got
}

func TestTCPRoundTrip(t *testing.T) {
	_, cli, got := tcpPair(t)
	tr := &market.Trade{MP: 3, Seq: 9, Price: 100, Qty: 1,
		DC: market.DeliveryClock{Point: 5, Elapsed: 123}}
	if err := cli.Send(tr); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if *(v.(*market.Trade)) != *tr {
			t.Fatalf("got %+v", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("nothing received")
	}
}

func TestTCPInOrderDelivery(t *testing.T) {
	srv, cli, got := tcpPair(t)
	const n = 2000
	for i := 0; i < n; i++ {
		if err := cli.Send(market.Heartbeat{MP: 1, DC: market.DeliveryClock{Point: market.PointID(i + 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case v := <-got:
			h := v.(market.Heartbeat)
			if h.DC.Point != market.PointID(i+1) {
				t.Fatalf("message %d out of order: point %d", i, h.DC.Point)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("lost message %d (server saw %d)", i, srv.Received())
		}
	}
	if cli.Sent() != n {
		t.Fatalf("sent = %d", cli.Sent())
	}
}

func TestTCPMultipleClients(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var mu sync.Mutex
	perMP := map[market.ParticipantID]int{}
	go srv.Serve(func(v any, from *net.UDPAddr) {
		if h, ok := v.(market.Heartbeat); ok {
			mu.Lock()
			perMP[h.MP]++
			mu.Unlock()
		}
	})
	var wg sync.WaitGroup
	for mp := 1; mp <= 4; mp++ {
		wg.Add(1)
		go func(mp int) {
			defer wg.Done()
			cli, err := DialTCP(srv.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer cli.Close()
			for i := 0; i < 100; i++ {
				if err := cli.Send(market.Heartbeat{MP: market.ParticipantID(mp)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(mp)
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		total := 0
		for _, c := range perMP {
			total += c
		}
		mu.Unlock()
		if total == 400 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d of 400", total)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for mp := 1; mp <= 4; mp++ {
		if perMP[market.ParticipantID(mp)] != 100 {
			t.Fatalf("MP %d: %d messages", mp, perMP[market.ParticipantID(mp)])
		}
	}
}

func TestTCPServerCloseUnblocksServe(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(func(any, *net.UDPAddr) {}) }()
	time.Sleep(10 * time.Millisecond)
	srv.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return")
	}
}

// A conn accepted just before Close sweeps must not be left to a reader
// goroutine nothing will ever stop: registration after Close is refused
// and the conn closed, while one registered before is Close's to close.
func TestTCPServerRefusesConnAfterClose(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peerClosed := func(peer net.Conn) bool {
		peer.SetReadDeadline(time.Now().Add(2 * time.Second))
		_, err := peer.Read(make([]byte, 1))
		return err == io.EOF
	}

	early, earlyPeer := net.Pipe()
	if !srv.register(early) {
		t.Fatal("register before Close was refused")
	}
	srv.Close()
	if !peerClosed(earlyPeer) {
		t.Fatal("Close left a registered conn open")
	}

	late, latePeer := net.Pipe()
	if srv.register(late) {
		t.Fatal("register after Close was accepted")
	}
	if !peerClosed(latePeer) {
		t.Fatal("a refused conn was left open")
	}
	srv.mu.Lock()
	_, kept := srv.conns[late]
	srv.mu.Unlock()
	if kept {
		t.Fatal("a refused conn was recorded")
	}
	if clean, errored := srv.ConnStats(); clean != 1 || errored != 0 {
		t.Fatalf("ConnStats = %d clean, %d errored; want the refusal counted as one clean shutdown close", clean, errored)
	}
}

func TestTCPGarbageFrameDropsConnection(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	received := make(chan any, 16)
	go srv.Serve(func(v any, from *net.UDPAddr) { received <- v })

	raw, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}) // implausible length
	raw.Close()

	// The server must survive and keep serving fresh clients.
	cli, err := DialTCP(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Send(market.Heartbeat{MP: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-received:
	case <-time.After(2 * time.Second):
		t.Fatal("server wedged after garbage frame")
	}
}

func TestTCPDialError(t *testing.T) {
	if _, err := DialTCP("127.0.0.1:1"); err == nil {
		t.Fatal("expected connection error")
	}
}
