package node

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"testing"
	"time"

	"dbo/internal/market"
	"dbo/internal/wire"
)

// rtOf assigns each (participant, point) a deterministic response time:
// the three MPs rotate through {4, 10, 16}ms per point, so every race's
// expected winner is known and RT gaps (6ms) dwarf scheduler jitter.
// Trades carry their *measured* response times, so a late timer still
// yields truthful ground truth; the cluster's δ (25ms) leaves ~9ms of
// headroom before the slowest intended response leaves the horizon.
func rtOf(mp market.ParticipantID, point market.PointID) time.Duration {
	slot := (int(mp) - 1 + int(point)) % 3
	return time.Duration(slot*6+4) * time.Millisecond
}

func strategyFor(id market.ParticipantID) Strategy {
	return func(dp market.DataPoint) (bool, time.Duration, market.Side, int64, int64) {
		side := market.Buy
		if (int(id)+int(dp.ID))%2 == 0 {
			side = market.Sell
		}
		return true, rtOf(id, dp.ID), side, dp.Price, 1
	}
}

// startCluster boots one CES and n MPs on loopback; the MPs named in
// tcp send their reverse path over framed TCP, the rest over UDP.
func startCluster(t *testing.T, n, ticks int, tcp ...market.ParticipantID) (*CES, []*MP) {
	t.Helper()
	ces, err := NewCES(CESConfig{
		Listen:       "127.0.0.1:0",
		TickInterval: 60 * time.Millisecond,
		Ticks:        ticks,
		Delta:        25 * time.Millisecond,
		Kappa:        0.25,
		Tau:          2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var mps []*MP
	var addrs []MPAddr
	for i := 1; i <= n; i++ {
		id := market.ParticipantID(i)
		cfg := MPConfig{
			ID:       id,
			Listen:   "127.0.0.1:0",
			CES:      ces.Addr().String(),
			Delta:    25 * time.Millisecond,
			Tau:      2 * time.Millisecond,
			Strategy: strategyFor(id),
		}
		for _, tid := range tcp {
			if tid == id {
				cfg.CESTCP = ces.TCPAddr().String()
			}
		}
		mp, err := StartMP(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mps = append(mps, mp)
		addrs = append(addrs, MPAddr{ID: id, Addr: mp.Addr().String()})
	}
	if err := ces.Start(addrs); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ces.Stop()
		for _, mp := range mps {
			mp.Stop()
		}
	})
	return ces, mps
}

// waitForward polls until the CES has forwarded want trades.
func waitForward(t *testing.T, ces *CES, want int, timeout time.Duration) []*market.Trade {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		got := ces.Forwarded()
		if len(got) >= want {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("forwarded %d of %d trades before timeout", len(got), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestLiveClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster test needs real time")
	}
	const nMP, ticks = 3, 12
	ces, _ := startCluster(t, nMP, ticks)
	trades := waitForward(t, ces, nMP*ticks, 10*time.Second)

	// Every trade arrived exactly once.
	seen := map[market.TradeKey]bool{}
	byTrigger := map[market.PointID][]*market.Trade{}
	for _, tr := range trades {
		if seen[tr.Key()] {
			t.Fatalf("duplicate trade %v", tr.Key())
		}
		seen[tr.Key()] = true
		byTrigger[tr.Trigger] = append(byTrigger[tr.Trigger], tr)
	}
	if len(byTrigger) != ticks {
		t.Fatalf("races = %d, want %d", len(byTrigger), ticks)
	}

	// LRTF: within every race the forwarding order matches the known
	// response-time order — over real, unequal, unsynchronized UDP paths.
	pos := map[market.TradeKey]int{}
	for i, tr := range trades {
		pos[tr.Key()] = i
	}
	for trig, race := range byTrigger {
		if len(race) != nMP {
			t.Fatalf("race %d has %d trades", trig, len(race))
		}
		for i := 0; i < len(race); i++ {
			for j := i + 1; j < len(race); j++ {
				a, b := race[i], race[j]
				if a.RT == b.RT {
					continue
				}
				if (a.RT < b.RT) != (pos[a.Key()] < pos[b.Key()]) {
					t.Errorf("race %d: RT %v vs %v but order %d vs %d",
						trig, a.RT, b.RT, pos[a.Key()], pos[b.Key()])
				}
			}
		}
	}

	// Delivery-clock tags are present and per-MP monotone.
	last := map[market.ParticipantID]market.DeliveryClock{}
	for _, tr := range trades {
		if tr.DC.Point == 0 {
			t.Fatalf("trade %v missing delivery-clock tag", tr.Key())
		}
		_ = last
	}

	if ces.Executions() == 0 {
		t.Error("matching engine made no fills")
	}
}

func TestLiveClusterOrderIsGlobalDCOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster test needs real time")
	}
	ces, _ := startCluster(t, 2, 8)
	trades := waitForward(t, ces, 16, 10*time.Second)
	for i := 1; i < len(trades); i++ {
		a, b := trades[i-1], trades[i]
		ka := market.Ordering{DC: a.DC, MP: a.MP, Seq: a.Seq}
		kb := market.Ordering{DC: b.DC, MP: b.MP, Seq: b.Seq}
		if kb.Less(ka) {
			t.Fatalf("ME order violates delivery-clock order at %d: %v ≥ %v", i, a.DC, b.DC)
		}
	}
}

func TestLiveStragglerBypass(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster test needs real time")
	}
	// One configured MP never starts (crashed RB). With straggler
	// mitigation, trades from the live MP still flow.
	ces, err := NewCES(CESConfig{
		Listen:       "127.0.0.1:0",
		TickInterval: 20 * time.Millisecond,
		Ticks:        8,
		Delta:        25 * time.Millisecond,
		Tau:          2 * time.Millisecond,
		StragglerRTT: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	mp, err := StartMP(MPConfig{
		ID: 1, Listen: "127.0.0.1:0", CES: ces.Addr().String(),
		Delta: 4 * time.Millisecond, Tau: 2 * time.Millisecond,
		Strategy: strategyFor(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Stop()
	// MP 2 is a dead address: a bound socket nobody serves.
	dead, err := StartMP(MPConfig{
		ID: 2, Listen: "127.0.0.1:0", CES: ces.Addr().String(),
		Delta: 4 * time.Millisecond, Tau: 2 * time.Millisecond,
		Strategy: strategyFor(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Stop() // crash it immediately
	if err := ces.Start([]MPAddr{
		{ID: 1, Addr: mp.Addr().String()},
		{ID: 2, Addr: deadAddr},
	}); err != nil {
		t.Fatal(err)
	}
	defer ces.Stop()
	trades := waitForward(t, ces, 8, 10*time.Second)
	for _, tr := range trades {
		if tr.MP != 1 {
			t.Fatalf("unexpected trade from %d", tr.MP)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewCES(CESConfig{Listen: "127.0.0.1:0"}); err == nil {
		t.Error("zero timing config must fail")
	}
	if _, err := StartMP(MPConfig{Listen: "127.0.0.1:0", CES: "127.0.0.1:1", Delta: time.Millisecond, Tau: time.Millisecond}); err == nil {
		t.Error("missing strategy must fail")
	}
	if _, err := StartMP(MPConfig{Listen: "127.0.0.1:0", CES: "127.0.0.1:1",
		Strategy: strategyFor(1)}); err == nil {
		t.Error("zero delta must fail")
	}
	c, err := NewCES(CESConfig{Listen: "127.0.0.1:0", TickInterval: time.Millisecond,
		Ticks: 1, Delta: time.Millisecond, Tau: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(nil); err == nil {
		t.Error("empty MP set must fail")
	}
}

func TestLiveThroughputSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster test needs real time")
	}
	// Feasibility smoke in the spirit of §6.3's 125K trades/s target:
	// short ticks, several MPs, just verify nothing wedges and ordering
	// state drains. (Absolute rates depend on the CI machine.)
	ces, err := NewCES(CESConfig{
		Listen:       "127.0.0.1:0",
		TickInterval: time.Millisecond,
		Ticks:        200,
		Delta:        500 * time.Microsecond,
		Tau:          500 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var addrs []MPAddr
	var mps []*MP
	for i := 1; i <= 4; i++ {
		id := market.ParticipantID(i)
		mp, err := StartMP(MPConfig{
			ID: id, Listen: "127.0.0.1:0", CES: ces.Addr().String(),
			Delta: 500 * time.Microsecond, Tau: 500 * time.Microsecond,
			Strategy: func(dp market.DataPoint) (bool, time.Duration, market.Side, int64, int64) {
				return true, time.Duration(100+int(id)*50) * time.Microsecond, market.Buy, dp.Price, 1
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		mps = append(mps, mp)
		addrs = append(addrs, MPAddr{ID: id, Addr: mp.Addr().String()})
	}
	defer func() {
		for _, mp := range mps {
			mp.Stop()
		}
	}()
	if err := ces.Start(addrs); err != nil {
		t.Fatal(err)
	}
	defer ces.Stop()
	want := 4 * 200
	got := waitForward(t, ces, want*9/10, 20*time.Second) // UDP may drop a few
	if len(got) < want*9/10 {
		t.Fatalf("forwarded %d of %d", len(got), want)
	}
}

func ExampleStartCES() {
	fmt.Println("see examples/livelocal for a runnable cluster")
	// Output: see examples/livelocal for a runnable cluster
}

func TestExecutionReportsReachParticipants(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster test needs real time")
	}
	ces, mps := startCluster(t, 2, 10)
	waitForward(t, ces, 20, 10*time.Second)
	if ces.Executions() == 0 {
		t.Skip("workload produced no crossings on this run")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		total := 0
		for _, mp := range mps {
			total += mp.Fills()
		}
		if total > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("ME made %d fills but no execution report reached any MP", ces.Executions())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestLiveClusterTCPReversePath(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster test needs real time")
	}
	const nMP, ticks = 2, 8
	ces, err := NewCES(CESConfig{
		Listen:       "127.0.0.1:0",
		TickInterval: 60 * time.Millisecond,
		Ticks:        ticks,
		Delta:        25 * time.Millisecond,
		Tau:          2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var mps []*MP
	var addrs []MPAddr
	for i := 1; i <= nMP; i++ {
		id := market.ParticipantID(i)
		mp, err := StartMP(MPConfig{
			ID:       id,
			Listen:   "127.0.0.1:0",
			CES:      ces.Addr().String(),
			CESTCP:   ces.TCPAddr().String(),
			Delta:    25 * time.Millisecond,
			Tau:      2 * time.Millisecond,
			Strategy: strategyFor(id),
		})
		if err != nil {
			t.Fatal(err)
		}
		mps = append(mps, mp)
		addrs = append(addrs, MPAddr{ID: id, Addr: mp.Addr().String()})
	}
	if err := ces.Start(addrs); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ces.Stop()
		for _, mp := range mps {
			mp.Stop()
		}
	})
	trades := waitForward(t, ces, nMP*ticks, 10*time.Second)
	// Same LRTF assertion, now with trades and heartbeats over TCP.
	pos := map[market.TradeKey]int{}
	byTrigger := map[market.PointID][]*market.Trade{}
	for i, tr := range trades {
		pos[tr.Key()] = i
		byTrigger[tr.Trigger] = append(byTrigger[tr.Trigger], tr)
	}
	for trig, race := range byTrigger {
		for i := 0; i < len(race); i++ {
			for j := i + 1; j < len(race); j++ {
				a, b := race[i], race[j]
				if a.RT == b.RT {
					continue
				}
				if (a.RT < b.RT) != (pos[a.Key()] < pos[b.Key()]) {
					t.Errorf("race %d misordered over TCP path", trig)
				}
			}
		}
	}
}

// TestStopLeavesNoGoroutines is the lifecycle oracle for every `go`
// statement under internal/, and it pins what a node costs: a started MP
// is one goroutine, its loop, and so is a started CES, however many TCP
// connections its loop reads. The cluster is a CES and two MPs, one on
// the UDP reverse path and one on framed TCP; two more connections are
// dialled while it runs, and the TCP peers hang up before the end. After
// traffic has flowed and everything is stopped, the goroutine count must
// return to where it started. Neither Start nor Stop waits for the
// goroutines it starts or tells to exit, hence the polls.
func TestStopLeavesNoGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster test needs real time")
	}
	// wait polls until ok holds, for up to five seconds, and fails
	// printing every stack if it never does.
	wait := func(ok func() bool, what string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !ok(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				var stacks bytes.Buffer
				pprof.Lookup("goroutine").WriteTo(&stacks, 1) //nolint:errcheck // a bytes.Buffer does not fail
				t.Fatalf("%s: %d goroutines:\n%s", what, runtime.NumGoroutine(), stacks.String())
			}
		}
	}
	// Whatever earlier tests' nodes leave is still on its way out.
	before := runtime.NumGoroutine()
	for steady := time.Now(); time.Since(steady) < 20*time.Millisecond; time.Sleep(time.Millisecond) {
		if n := runtime.NumGoroutine(); n != before {
			before, steady = n, time.Now()
		}
	}
	pin := func(add int, what string) {
		t.Helper()
		wait(func() bool { return runtime.NumGoroutine() == before+add }, fmt.Sprintf("%s: want %d + %d", what, before, add))
	}

	ces, err := NewCES(CESConfig{
		Listen: "127.0.0.1:0", TickInterval: 60 * time.Millisecond, Ticks: 4,
		Delta: 25 * time.Millisecond, Kappa: 0.25, Tau: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var mps []*MP
	var addrs []MPAddr
	for id := market.ParticipantID(1); id <= 2; id++ {
		cfg := MPConfig{
			ID: id, Listen: "127.0.0.1:0", CES: ces.Addr().String(),
			Delta: 25 * time.Millisecond, Tau: 2 * time.Millisecond, Strategy: strategyFor(id),
		}
		if id == 2 {
			cfg.CESTCP = ces.TCPAddr().String()
		}
		mp, err := StartMP(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mps = append(mps, mp)
		addrs = append(addrs, MPAddr{ID: id, Addr: mp.Addr().String()})
		pin(len(mps), fmt.Sprintf("%d started MPs", len(mps)))
	}
	if err := ces.Start(addrs); err != nil {
		t.Fatal(err)
	}
	wait(func() bool { return ces.tcp.Received() > 0 }, "MP 2's TCP connection is read")
	pin(len(mps)+1, "two MPs and a started CES reading one TCP connection")

	raws := []net.Conn{dialTCP(t, ces), dialTCP(t, ces)}
	pin(len(mps)+1, "two MPs and a started CES reading three TCP connections")
	waitForward(t, ces, 2*4, 10*time.Second)

	// Every TCP peer hangs up: the CES reads none, and still runs.
	raws[0].Close()
	raws[1].Close()
	mps[1].Stop()
	wait(func() bool { clean, _ := ces.tcp.ConnStats(); return clean == 3 }, "three clean hang-ups")
	pin(2, "one MP and a started CES reading no TCP connection")

	ces.Stop()
	mps[0].Stop()
	wait(func() bool { return runtime.NumGoroutine() <= before }, fmt.Sprintf("five seconds after Stop, want at most %d", before))
}

// dialTCP dials the CES's TCP listener and returns once the CES has read
// what it writes: a retransmission request from 0, which no MP sends, so
// retx_rejected counts it.
func dialTCP(t testing.TB, ces *CES) net.Conn {
	t.Helper()
	raw, err := net.Dial("tcp", ces.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	rejected := ces.Metrics().Counter("retx_rejected")
	want := rejected.Value() + 1
	if _, err := raw.Write(frame(wire.AppendRetx(nil, wire.Retx{MP: 1}))); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); rejected.Value() < want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the CES never read a dialled connection")
		}
	}
	return raw
}

// frame is b as one framed-TCP message: its length, then b.
func frame(b []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(b))), b...)
}

// A TCP peer that hangs up mid-run is read to its end, counted as a clean
// close, unwatched and closed: the descriptors are those before the
// dial, and the CES goes on forwarding what its UDP socket brings.
func TestTCPPeerHangUpIsUnwatched(t *testing.T) {
	if testing.Short() {
		t.Skip("live ingest needs real sockets and real time")
	}
	f := startIngestFleet(t, 2)
	f.run(t, 2, 8)
	before := openFDs()
	dialTCP(t, f.ces).Close()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if c, e := f.ces.tcp.ConnStats(); c == 1 && e == 0 && openFDs() == before {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("after the hang-up: conn stats (%d, %d), want (1, 0); %d descriptors, %d before the dial", c, e, openFDs(), before)
		}
	}
	f.run(t, 2, 8)
}

func TestMetricsRegistryAndHTTPScrape(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster test needs real time")
	}
	ces, _ := startCluster(t, 2, 4)
	waitForward(t, ces, 8, 10*time.Second)

	srv := httptest.NewServer(ces.Metrics().Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap["data_points"] != 4 {
		t.Errorf("data_points = %d", snap["data_points"])
	}
	if snap["trades_forwarded"] < 8 {
		t.Errorf("trades_forwarded = %d", snap["trades_forwarded"])
	}
	if snap["heartbeats_received"] == 0 {
		t.Error("no heartbeats counted")
	}
	if _, ok := snap["ob_queued"]; !ok {
		t.Error("ob_queued func metric missing")
	}
	if snap["stragglers"] != 0 {
		t.Errorf("stragglers = %d", snap["stragglers"])
	}
	// The loop's own rows: its timers have fired, so the alarm has been
	// set and their lateness observed.
	if snap["alarm_arms"] == 0 || snap["timer_late_ns_count"] == 0 {
		t.Errorf("alarm_arms = %d, timer_late_ns_count = %d after four ticks", snap["alarm_arms"], snap["timer_late_ns_count"])
	}
	if snap["loop_wakes"] == 0 || snap["loop_turns"] < snap["loop_wakes"] {
		t.Errorf("loop_wakes = %d, loop_turns = %d after four ticks: a loop turns at least once per wake", snap["loop_wakes"], snap["loop_turns"])
	}
	if v, ok := snap["udp_rx_errors"]; !ok || v != 0 {
		t.Errorf("udp_rx_errors = %d (present %v) on a healthy socket", v, ok)
	}
}

// A stopped node's loop runs nothing it is posted: the gauges it served
// read -1 at once, they do not each wait out the wedged-loop second.
func TestScrapeAfterStopReturnsAtOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster test needs real time")
	}
	ces, mps := startCluster(t, 1, 2)
	waitForward(t, ces, 2, 10*time.Second)
	ces.Stop()
	mps[0].Stop()

	start := time.Now()
	snap := ces.Metrics().Snapshot()
	fills, queued := mps[0].Fills(), ces.Queued()
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("a scrape, Fills and Queued after Stop took %v", took)
	}
	if snap["stragglers"] != -1 || snap["ob_queued"] != -1 || fills != -1 || queued != -1 {
		t.Errorf("after Stop: stragglers %d, ob_queued %d, Fills %d, Queued %d, want -1 each",
			snap["stragglers"], snap["ob_queued"], fills, queued)
	}
}

// TestLiveClusterAllocBudget holds the whole live loop — CES tick and
// fan-out, two real MPs (one on the framed-TCP reverse path), release
// buffer pacing, response timers, probes, heartbeats, ordering buffer,
// matching engine, execution reports — to a twentieth of a heap object
// per forwarded trade. As on the ingest path, what is left is the trade
// arena's chunk and the amortized growth of the run's logs.
func TestLiveClusterAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster test needs real time")
	}
	// dbo-load's live_cluster: every point is answered by both MPs, one
	// at once and one after slow, and the two cross.
	const tick, delta, tau, slow = 2 * time.Millisecond, 4 * time.Millisecond, 2 * time.Millisecond, 2 * time.Millisecond
	const warm, measured = 200, 1000
	var forwarded atomic.Int64
	ces, err := NewCES(CESConfig{
		Listen: "127.0.0.1:0", TickInterval: tick, Ticks: 1 << 30,
		Delta: delta, Kappa: 0.25, Tau: tau, ProbeInterval: 10 * time.Millisecond,
		OnForward: func(*market.Trade) { forwarded.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	var addrs []MPAddr
	for id := market.ParticipantID(1); id <= 2; id++ {
		cfg := MPConfig{
			ID: id, Listen: "127.0.0.1:0", CES: ces.Addr().String(), Delta: delta, Tau: tau,
			Strategy: func(dp market.DataPoint) (bool, time.Duration, market.Side, int64, int64) {
				if (int(id)+int(dp.ID))%2 == 0 {
					return true, 0, market.Buy, 100, 1
				}
				return true, slow, market.Sell, 100, 1
			},
		}
		if id == 2 {
			cfg.CESTCP = ces.TCPAddr().String()
		}
		mp, err := StartMP(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(mp.Stop)
		addrs = append(addrs, MPAddr{ID: id, Addr: mp.Addr().String()})
	}
	if err := ces.Start(addrs); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ces.Stop)
	waitFor := func(n int64) {
		t.Helper()
		for deadline := time.Now().Add(20 * time.Second); forwarded.Load() < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("forwarded %d of %d trades", forwarded.Load(), n)
			}
		}
	}
	waitFor(warm) // slices, free lists and the book reach their working size

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	from := forwarded.Load()
	waitFor(from + measured)
	trades := float64(forwarded.Load() - from)
	runtime.ReadMemStats(&after)

	const budget = 0.05
	perTrade := float64(after.Mallocs-before.Mallocs) / trades
	m := ces.Metrics().Snapshot()
	t.Logf("%.4f objects per forwarded trade over %.0f trades, %.2f fills per trade, %.2f exec datagrams per fill, %d datagrams dropped at the socket",
		perTrade, trades, float64(m["executions"])/float64(m["trades_forwarded"]),
		float64(m["exec_reports_sent"])/float64(max(m["executions"], 1)), m["udp_rx_dropped"])
	if perTrade > budget {
		t.Fatalf(`%.4f heap objects per forwarded trade, budget %.2f. Beyond the ingest path's sites (TestLiveIngestAllocBudget), profile with
  go test ./internal/node -run TestLiveClusterAllocBudget -memprofile mem.prof -memprofilerate 1
  go tool pprof -sample_index=alloc_objects -top mem.prof
and look for:
  core.(*ReleaseBuffer).newBatch / OnData  a Batch and its Points per batch (the MP's RB recycles both: RecycleBatches)
  core.(*ReleaseBuffer).tryRelease         a closure per paced release (the RB schedules the func it bound once)
  node.(*MP).onBatch / respond             a closure or a trade per response (slab slot + Loop.Schedule, one reused Trade)
  transport.(*TCPClient).Write             a frame header per message (prefixed in place)
Expected to remain: market.(*TradeArena).New (its 512-trade chunk, 1/512 ≈ 0.002).`,
			perTrade, budget)
	}
}
