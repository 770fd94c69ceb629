package core

import (
	"math/rand/v2"
	"slices"
	"testing"

	"dbo/internal/market"
	"dbo/internal/sim"
)

// The gate differential harness drives one op stream through a single
// OrderingBuffer and through two OBShards feeding a master, and after
// every operation checks each of the four gates' cached minimum (and
// its multiplicity) against a full scan, that neither buffer is holding
// a trade the scan says is admissible, that every forwarded trade was
// the minimum pending one by a reference heap, and that the master's
// view of each shard is that shard's current minimum.
//
// Ops are two bytes: kind in bits 0-2 and sender in bits 3-5 (MPs 1-8,
// of which 5-8 are not participants), then an argument:
//
//	gateOpTrade      arg is ⟨point, elapsed⟩, four bits each
//	gateOpHeartbeat  sender's clock rises to ⟨current point − arg>>5,
//	                 (arg&31)µs⟩ or repeats its last report; the lag sets
//	                 the measured RTT, so it moves the sender across the
//	                 exclusion threshold in both directions
//	gateOpRegress    heartbeat with the absolute clock ⟨arg>>4, arg&15⟩,
//	                 usually below the sender's last report
//	gateOpAdvance    time moves arg·2µs, then both sides tick
//	gateOpTick       both sides tick
//
// Byte 0 of a stream holds flags: bit 0 turns the adaptive threshold on.
const (
	gateOpTrade = iota
	gateOpHeartbeat
	gateOpRegress
	gateOpAdvance
	gateOpTick
	gateOpKinds

	gatePointEvery = 10 * sim.Microsecond // G(p) = p · gatePointEvery
	gateThreshold  = 50 * sim.Microsecond
)

func gateOp(kind int, mp market.ParticipantID, arg byte) []byte {
	return []byte{byte(kind) | byte(mp-1)<<3, arg}
}

type stepSched struct{ now sim.Time }

func (s *stepSched) Now() sim.Time       { return s.now }
func (s *stepSched) At(sim.Time, func()) { panic("core: the ordering gate scheduled a timer") }

// gateSide is one ordering buffer under test with its reference heap.
type gateSide struct {
	name      string
	ob        *OrderingBuffer
	ref       heapQueue
	forwarded int
}

func (s *gateSide) push(t *market.Trade) {
	cp := *t
	s.ref.Push(&cp)
}

// gateTrace is what a run observed on the sharded side: every straggler
// transition, and shard 0's minimum after each op.
type gateTrace struct {
	events []StragglerEvent
	minima []market.DeliveryClock
}

func runGateOps(t *testing.T, ops []byte) (trace gateTrace) {
	t.Helper()
	parts := []market.ParticipantID{1, 2, 3, 4}
	sched := &stepSched{now: gatePointEvery} // point 1 exists from the start
	gen := func(p market.PointID) sim.Time { return sim.Time(p) * gatePointEvery }
	policy := func() ThresholdPolicy {
		if len(ops) > 0 && ops[0]&1 != 0 {
			return NewAdaptiveThreshold(AdaptiveConfig{Window: 4, Floor: 20 * sim.Microsecond}, gateThreshold)
		}
		return nil
	}

	single, master := &gateSide{name: "single"}, &gateSide{name: "master"}
	forward := func(s *gateSide) func(*market.Trade) {
		return func(tr *market.Trade) {
			if s.ref.Len() == 0 {
				t.Fatalf("%s forwarded %+v with nothing pending", s.name, ordKey(tr))
			}
			if want := s.ref.Pop(); ordKey(want) != ordKey(tr) {
				t.Fatalf("%s forwarded %+v while %+v is the minimum pending", s.name, ordKey(tr), ordKey(want))
			}
			s.forwarded++
		}
	}
	single.ob = NewOrderingBuffer(OrderingBufferConfig{
		Participants: parts, Forward: forward(single), Sched: sched,
		StragglerRTT: gateThreshold, Threshold: policy(), GenTime: gen,
	})
	sharded := NewShardedOB(ShardedOBConfig{
		Participants: parts, NumShards: 2, Forward: forward(master), Sched: sched,
		StragglerRTT: gateThreshold, Threshold: policy(), GenTime: gen,
		OnStraggler: func(ev StragglerEvent) { trace.events = append(trace.events, ev) },
	})
	master.ob = sharded.Master

	last := map[market.ParticipantID]market.DeliveryClock{}
	var seq market.TradeSeq
	heartbeat := func(mp market.ParticipantID, c market.DeliveryClock) {
		last[mp] = c
		single.ob.OnHeartbeat(hb(mp, c))
		sharded.OnHeartbeat(hb(mp, c))
	}

	for i := 1; i+1 < len(ops); i += 2 {
		kind, arg := int(ops[i]&7)%gateOpKinds, ops[i+1]
		mp := market.ParticipantID(1 + ops[i]>>3&7)
		switch kind {
		case gateOpTrade:
			seq++
			tr := trade(mp, seq, dc(market.PointID(arg>>4), sim.Time(arg&15)))
			cp := *tr
			single.push(tr)
			master.push(tr)
			single.ob.OnTrade(tr)
			if single.ob.lookup(mp) != nil {
				sharded.OnTrade(&cp)
			} else {
				// ShardedOB has no shard to route a stranger's trade to;
				// the master still has to order it (its participants
				// are shard ids, so every member is a stranger there).
				master.ob.OnTrade(&cp)
			}
		case gateOpHeartbeat:
			cur := market.PointID(sched.now / gatePointEvery)
			c := dc(cur-min(cur, market.PointID(arg>>5)), sim.Time(arg&31)*sim.Microsecond)
			if c.Less(last[mp]) {
				c = last[mp]
			}
			heartbeat(mp, c)
		case gateOpRegress:
			heartbeat(mp, dc(market.PointID(arg>>4), sim.Time(arg&15)))
		case gateOpAdvance:
			sched.now += sim.Time(arg) * 2 * sim.Microsecond
			fallthrough
		case gateOpTick:
			single.ob.Tick()
			sharded.Tick()
		}

		for _, s := range []*gateSide{single, master} {
			checkGate(t, i, s.name, &s.ob.gate)
			if head := s.ob.queue.Peek(); head != nil && head.DC.Less(scanMin(&s.ob.gate)) {
				t.Fatalf("op %d: %s holds %+v below the gate minimum %v", i, s.name, ordKey(head), scanMin(&s.ob.gate))
			}
			if s.ob.Queued() != s.ref.Len() || s.ob.Forwarded != s.forwarded {
				t.Fatalf("op %d: %s queued %d forwarded %d, reference %d and %d",
					i, s.name, s.ob.Queued(), s.ob.Forwarded, s.ref.Len(), s.forwarded)
			}
		}
		for j, sh := range sharded.Shards {
			checkGate(t, i, "shard", &sh.gate)
			if wm, _ := master.ob.Watermark(sh.cfg.ID); sh.sent && wm != scanMin(&sh.gate) {
				t.Fatalf("op %d: master holds shard %d at %v, its minimum is %v", i, j, wm, scanMin(&sh.gate))
			}
		}
		trace.minima = append(trace.minima, scanMin(&sharded.Shards[0].gate))
	}
	return trace
}

// scanMin is the reference minimum: a full pass over the participants.
func scanMin(g *gate) market.DeliveryClock {
	m := market.MaxDeliveryClock
	for _, st := range g.order {
		if !st.straggler && st.wm.Less(m) {
			m = st.wm
		}
	}
	return m
}

func checkGate(t *testing.T, op int, name string, g *gate) {
	t.Helper()
	want := scanMin(g)
	if got := g.minimum(); got != want {
		t.Fatalf("op %d: %s gate caches minimum %v, a scan finds %v", op, name, got, want)
	}
	n := 0
	for _, st := range g.order {
		if contribution(st) == want {
			n++
		}
	}
	if g.minN != n {
		t.Fatalf("op %d: %s gate counts %d participants on the minimum %v, a scan finds %d", op, name, g.minN, want, n)
	}
}

func gateSeeds() [][]byte {
	cat := func(flags byte, ops ...[]byte) []byte {
		out := []byte{flags}
		for _, op := range ops {
			out = append(out, op...)
		}
		return out
	}
	fresh := func(mps ...market.ParticipantID) (ops [][]byte) {
		for _, mp := range mps {
			ops = append(ops, gateOp(gateOpHeartbeat, mp, 0))
		}
		return ops
	}
	// Straggler exclusion → re-admission. At 70µs MP 2 still reports
	// point 1 (RTT 60µs > 50µs) and is excluded, trades pass without
	// it, and its next report, of the current point, re-admits it.
	readmit := cat(0, slices.Concat(
		fresh(1, 2, 3, 4), [][]byte{gateOp(gateOpAdvance, 1, 10)},
		fresh(1, 3, 4), [][]byte{gateOp(gateOpHeartbeat, 2, 2<<5), gateOp(gateOpAdvance, 1, 20)},
		fresh(1, 3, 4), [][]byte{
			gateOp(gateOpHeartbeat, 2, 6<<5),
			gateOp(gateOpTrade, 1, 0x51), gateOp(gateOpTrade, 7, 0x40),
			gateOp(gateOpHeartbeat, 2, 1),
			gateOp(gateOpTrade, 3, 0x62), gateOp(gateOpTick, 1, 0),
		})...)
	// A shard minimum regressing at the master. MP 1 stays silent past
	// the timeout while its shard-mate MP 3 runs ahead to ⟨9,0⟩, which
	// becomes shard 0's minimum; MP 1's report of point 5 re-admits it
	// and the minimum drops to ⟨5,0⟩. Reports below the sender's last
	// one follow, which only the single OB takes at face value.
	regress := cat(0, slices.Concat(
		fresh(1, 2, 3, 4), [][]byte{gateOp(gateOpAdvance, 1, 10)},
		fresh(2, 3, 4), [][]byte{gateOp(gateOpAdvance, 1, 20)},
		fresh(2, 3, 4), [][]byte{
			gateOp(gateOpTrade, 3, 0x90),
			gateOp(gateOpHeartbeat, 1, 2<<5),
			gateOp(gateOpTrade, 2, 0x80),
			gateOp(gateOpRegress, 3, 0x10), gateOp(gateOpRegress, 2, 0x00),
		})...)
	// Every participant excluded: after 510µs of silence the minimum is
	// MaxDeliveryClock and everything queued drains, a stranger's trade
	// included; one report closes the gate again.
	allOut := cat(1,
		gateOp(gateOpTrade, 1, 0x31), gateOp(gateOpTrade, 8, 0xf0), gateOp(gateOpTrade, 4, 0x22),
		gateOp(gateOpAdvance, 1, 255),
		gateOp(gateOpTrade, 2, 0xff),
		gateOp(gateOpHeartbeat, 3, 0),
		gateOp(gateOpTrade, 3, 0xfe), gateOp(gateOpAdvance, 1, 10))
	return [][]byte{{}, readmit, regress, allOut}
}

// TestOrderingGateDifferential runs the named seeds and a few hundred
// generated op streams, with the adaptive policy on in half of them.
func TestOrderingGateDifferential(t *testing.T) {
	t.Parallel()
	for _, ops := range gateSeeds() {
		runGateOps(t, ops)
	}
	for seed := uint64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewPCG(seed, 14))
		ops := make([]byte, 1+2*400)
		for i := range ops {
			ops[i] = byte(rng.Uint32())
		}
		// Bias time steps small so reports land on both sides of the
		// threshold instead of every participant timing out at once.
		for i := 1; i+1 < len(ops); i += 2 {
			if int(ops[i]&7)%gateOpKinds == gateOpAdvance {
				ops[i+1] &= 15
			}
		}
		runGateOps(t, ops)
	}
}

func FuzzOrderingGate(f *testing.F) {
	for _, ops := range gateSeeds() {
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runGateOps(t, ops) })
}

// TestGateSeedsReachTheirStates keeps the named seeds honest: each has
// to drive the gate into the state it is named for.
func TestGateSeedsReachTheirStates(t *testing.T) {
	t.Parallel()
	seeds := gateSeeds()
	readmit := runGateOps(t, seeds[1]).events
	if n := len(readmit); n < 2 || !readmit[0].Straggler || readmit[0].Timeout || readmit[n-1].Straggler {
		t.Errorf("readmit seed: want an RTT exclusion first and a re-admission last, got %+v", readmit)
	}
	regress := runGateOps(t, seeds[2]).minima
	if slices.IsSortedFunc(regress, market.DeliveryClock.Compare) {
		t.Errorf("regress seed: shard 0's minimum never regresses: %v", regress)
	}
	if allOut := runGateOps(t, seeds[3]).minima; !slices.Contains(allOut, market.MaxDeliveryClock) {
		t.Errorf("all-out seed: shard 0 never has every member excluded: %v", allOut)
	}
}
