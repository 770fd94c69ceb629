package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"dbo"
)

// freeUDPAddr returns a loopback address no socket holds: bound and let
// go, so that participants can be told the exchange's address before it
// binds.
func freeUDPAddr(t *testing.T) string {
	t.Helper()
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	addr := c.LocalAddr().String()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return addr
}

// The command runs an exchange for fifty 1 ms ticks against two
// participants on loopback and reports what it forwarded, per
// participant, and the live audit's verdict.
func TestExchangeAgainstTwoParticipants(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a live exchange for a second")
	}
	ces := freeUDPAddr(t)
	var mps []string
	for id := 1; id <= 2; id++ {
		mp, err := dbo.NewParticipant(dbo.ParticipantConfig{
			ID: dbo.ParticipantID(id), Listen: "127.0.0.1:0", CES: ces,
			Delta: 20 * time.Millisecond, Tau: time.Millisecond,
			// Every point is answered, participant 1 first, both well
			// inside δ however late a loaded host fires their timers; the
			// two cross.
			Strategy: func(dp dbo.DataPoint) (bool, time.Duration, dbo.Side, int64, int64) {
				side := dbo.Buy
				if (id+int(dp.ID))%2 == 0 {
					side = dbo.Sell
				}
				return true, time.Duration(2*id-1) * time.Millisecond, side, dp.Price, 1
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(mp.Stop)
		mps = append(mps, fmt.Sprintf("%d=%s", id, mp.Addr()))
	}
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-listen", ces, "-mps", strings.Join(mps, ","), "-tick", "1ms", "-ticks", "50", "-delta", "20ms", "-tau", "1ms"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	want := []string{
		`^CES listening on 127\.0\.0\.1:\d+ \(udp\) / 127\.0\.0\.1:\d+ \(tcp reverse path\), 2 participants, 50 ticks every 1ms$`,
		`^forwarded (\d+) trades to the matching engine, \d+ executions$`,
		`^  MP 1: (\d+) trades$`,
		`^  MP 2: (\d+) trades$`,
		`^audit: fairness 1\.0000 over \d+ pairs \(0 unfair\)$`,
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("%d lines of output, want %d:\n%s", len(lines), len(want), stdout.String())
	}
	for i, w := range want {
		m := regexp.MustCompile(w).FindStringSubmatch(lines[i])
		if m == nil {
			t.Fatalf("line %d is %q, want it to match %s", i+1, lines[i], w)
		}
		if len(m) > 1 {
			if n, _ := strconv.Atoi(m[1]); n == 0 {
				t.Errorf("line %d counts no trades: %q", i+1, lines[i])
			}
		}
	}
}

// An -mps entry that is not id=host:port is a usage error: exit 2, and
// stderr names the entry.
func TestBadParticipantListExitsTwo(t *testing.T) {
	for _, tc := range []struct{ mps, msg string }{
		{"1=127.0.0.1:7001,oops", `bad -mps entry "oops" (want id=host:port)`},
		{"x=127.0.0.1:7001", `bad participant id "x"`},
		{"", "no participants: pass -mps 1=host:port,..."},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), []string{"-mps", tc.mps}, &stdout, &stderr); code != 2 {
			t.Errorf("-mps %q: exit %d, want 2", tc.mps, code)
		}
		if !strings.Contains(stderr.String(), tc.msg) {
			t.Errorf("-mps %q: stderr %q, want it to say %q", tc.mps, stderr.String(), tc.msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("-mps %q: wrote %q to stdout", tc.mps, stdout.String())
		}
	}
}
