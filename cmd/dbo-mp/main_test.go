package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"regexp"
	"strconv"
	"testing"
	"time"

	"dbo"
)

// mpRun is one participant command running in-process: its exit code
// and every line it writes to stdout arrive on channels.
type mpRun struct {
	lines chan string
	code  chan int
}

func startMP(ctx context.Context, args ...string) *mpRun {
	r := &mpRun{lines: make(chan string, 16), code: make(chan int, 1)}
	pr, pw := io.Pipe()
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			r.lines <- sc.Text()
		}
		close(r.lines)
	}()
	go func() {
		var stderr bytes.Buffer
		code := run(ctx, args, pw, &stderr)
		pw.Close()
		r.code <- code
	}()
	return r
}

func (r *mpRun) line(t *testing.T, want string) []string {
	t.Helper()
	select {
	case l, ok := <-r.lines:
		m := regexp.MustCompile(want).FindStringSubmatch(l)
		if !ok || m == nil {
			t.Fatalf("output line %q, want it to match %s", l, want)
		}
		return m
	case <-time.After(5 * time.Second):
		t.Fatalf("no output line matching %s", want)
	}
	return nil
}

// Two participant commands trade against a live exchange on loopback for
// fifty 1 ms ticks: each says where it listens, both have trades
// forwarded, and each exits 0 with a last line once interrupted.
func TestTwoParticipantsAgainstAnExchange(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a live exchange")
	}
	ex, err := dbo.NewExchange(dbo.ExchangeConfig{
		Listen: "127.0.0.1:0", TickInterval: time.Millisecond, Ticks: 50,
		Delta: 500 * time.Microsecond, Kappa: 0.25, Tau: 500 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Stop)
	ctx, interrupt := context.WithCancel(context.Background())
	defer interrupt()
	var runs []*mpRun
	var addrs []dbo.ParticipantAddr
	for id := 1; id <= 2; id++ {
		r := startMP(ctx, "-id", strconv.Itoa(id), "-listen", "127.0.0.1:0", "-ces", ex.Addr().String(), "-rt", "100us", "-jitter", "50us")
		m := r.line(t, `^MP `+strconv.Itoa(id)+` listening on (127\.0\.0\.1:\d+), trading towards `+regexp.QuoteMeta(ex.Addr().String())+` \(rt 100µs±50µs\)$`)
		runs = append(runs, r)
		addrs = append(addrs, dbo.ParticipantAddr{ID: dbo.ParticipantID(id), Addr: m[1]})
	}
	if err := ex.Start(addrs); err != nil {
		t.Fatal(err)
	}
	perMP := map[dbo.ParticipantID]int{}
	for deadline := time.Now().Add(5 * time.Second); perMP[1] == 0 || perMP[2] == 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("trades forwarded per participant: %v", perMP)
		}
		clear(perMP)
		for _, tr := range ex.Forwarded() {
			perMP[tr.MP]++
		}
	}
	interrupt()
	for i, r := range runs {
		r.line(t, `^shutting down$`)
		if code := <-r.code; code != 0 {
			t.Errorf("MP %d exited %d", i+1, code)
		}
		if extra, ok := <-r.lines; ok {
			t.Errorf("MP %d wrote after shutting down: %q", i+1, extra)
		}
	}
}

// A flag that does not parse is a usage error: exit 2.
func TestBadFlagExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-id", "one"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if stderr.Len() == 0 || stdout.Len() != 0 {
		t.Fatalf("stdout %q, stderr %q: want the complaint on stderr only", stdout.String(), stderr.String())
	}
}
