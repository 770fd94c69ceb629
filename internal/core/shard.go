package core

import (
	"fmt"

	"dbo/internal/flight"
	"dbo/internal/market"
	"dbo/internal/sim"
)

// OBShard is one distributed ordering-buffer instance (§5.2 Scaling).
// It absorbs the heartbeats of its member RBs, maintains the minimum of
// their delivery clocks, and forwards to the master OB only (a) trades,
// unchanged, and (b) a synthetic heartbeat whenever the shard minimum
// advances. The master therefore processes O(shards) heartbeats instead
// of O(participants).
type OBShard struct {
	cfg ShardConfig
	gate
	last market.DeliveryClock // last minimum emitted to the master
	sent bool

	// HeartbeatsIn counts member heartbeats absorbed; HeartbeatsOut
	// counts synthetic heartbeats emitted to the master.
	HeartbeatsIn, HeartbeatsOut int
}

// ShardConfig configures an OBShard.
type ShardConfig struct {
	ID      market.ParticipantID   // this shard's id in the master's space
	Members []market.ParticipantID // RBs assigned to this shard
	Sched   Scheduler

	// EmitTrade / EmitHeartbeat send towards the master OB: member
	// trades pass through unchanged; market.Heartbeat{MP: ID} carries
	// the shard minimum, naming the member that moved it in Origin so
	// the master can attribute holds to a real participant. Two typed
	// callbacks (rather than one func(any)) keep the per-tick heartbeat
	// emit free of interface boxing — (ShardedOB).Tick is on the
	// zero-alloc hot path and dbo-vet's allocfree rule watches it.
	EmitTrade     func(t *market.Trade)
	EmitHeartbeat func(h market.Heartbeat)

	// StragglerRTT / GenTime / OnStraggler act exactly as in
	// OrderingBufferConfig but scoped to this shard's members.
	StragglerRTT sim.Time
	GenTime      func(p market.PointID) sim.Time
	OnStraggler  func(ev StragglerEvent)

	// Threshold, if non-nil, supplies the adaptive exclusion threshold
	// (see OrderingBufferConfig.Threshold). Shards of one ordering
	// domain must share a single instance so the population estimate
	// spans every member.
	Threshold ThresholdPolicy

	// Flight, if non-nil, receives this shard's watermark and straggler
	// events (member heartbeats absorbed here never reach the master).
	Flight *flight.Recorder
}

// NewOBShard validates and builds a shard.
func NewOBShard(cfg ShardConfig) *OBShard {
	if cfg.EmitTrade == nil || cfg.EmitHeartbeat == nil || cfg.Sched == nil {
		panic("core: shard needs EmitTrade, EmitHeartbeat and Sched")
	}
	return &OBShard{cfg: cfg, gate: newGate(cfg.Members, gateConfig{
		Sched:        cfg.Sched,
		StragglerRTT: cfg.StragglerRTT,
		Threshold:    cfg.Threshold,
		GenTime:      cfg.GenTime,
		OnStraggler:  cfg.OnStraggler,
		Flight:       cfg.Flight,
	})}
}

// OnTrade forwards a member trade to the master, also treating its tag
// as a watermark advance for the sender.
func (s *OBShard) OnTrade(t *market.Trade) {
	s.advance(t.MP, t.DC)
	s.cfg.EmitTrade(t)
	s.maybeEmitMin(t.MP)
}

// OnHeartbeat absorbs a member heartbeat.
func (s *OBShard) OnHeartbeat(h market.Heartbeat) {
	if !s.report(h, false) {
		return
	}
	s.HeartbeatsIn++
	s.maybeEmitMin(h.MP)
}

// Tick performs straggler-timeout checks and re-evaluates the minimum.
func (s *OBShard) Tick() {
	s.sweep(s.maybeEmitMin)
	s.maybeEmitMin(0)
}

// Min returns the shard's current minimum watermark over non-straggler
// members (MaxDeliveryClock if all members are stragglers).
func (s *OBShard) Min() market.DeliveryClock { return s.minimum() }

// maybeEmitMin re-emits the shard minimum when it changed; origin is
// the member whose report or exclusion triggered the re-evaluation
// (0 for a plain maintenance tick).
func (s *OBShard) maybeEmitMin(origin market.ParticipantID) {
	min := s.minimum()
	if s.sent && s.last == min {
		return // unchanged — a regression (straggler re-admission) must be emitted
	}
	s.last = min
	s.sent = true
	s.HeartbeatsOut++
	s.cfg.EmitHeartbeat(market.Heartbeat{MP: s.cfg.ID, DC: min, Sent: s.cfg.Sched.Now(), Origin: origin})
}

// ShardedOB composes N shards with a master OrderingBuffer in-process
// (the "different threads on multicore CPUs" deployment of §5.2). The
// simulation harness can instead place each shard behind its own
// network link by wiring OBShard and OrderingBuffer manually.
type ShardedOB struct {
	Master *OrderingBuffer
	Shards []*OBShard
	route  map[market.ParticipantID]*OBShard
}

// ShardedOBConfig configures a ShardedOB.
type ShardedOBConfig struct {
	Participants []market.ParticipantID
	NumShards    int
	Sched        Scheduler
	Forward      func(*market.Trade)

	// StragglerRTT / GenTime / OnStraggler are distributed to every
	// shard; the master OB itself runs without straggler mitigation
	// (shards already exclude their own members).
	StragglerRTT sim.Time
	GenTime      func(p market.PointID) sim.Time
	OnStraggler  func(ev StragglerEvent)

	// Threshold is the one adaptive policy instance shared by every
	// shard (nil = static StragglerRTT).
	Threshold ThresholdPolicy

	// Flight is shared by the master and every shard.
	Flight *flight.Recorder
}

// NewShardedOB distributes participants round-robin over NumShards
// shards feeding a master OB that forwards in final order.
func NewShardedOB(cfg ShardedOBConfig) *ShardedOB {
	if cfg.NumShards <= 0 || cfg.NumShards > len(cfg.Participants) {
		panic(fmt.Sprintf("core: NumShards %d out of range for %d participants", cfg.NumShards, len(cfg.Participants)))
	}
	members := make([][]market.ParticipantID, cfg.NumShards)
	for i, p := range cfg.Participants {
		members[i%cfg.NumShards] = append(members[i%cfg.NumShards], p)
	}
	shardIDs := make([]market.ParticipantID, cfg.NumShards)
	for i := range shardIDs {
		shardIDs[i] = market.ParticipantID(-(i + 1)) // negative ids: disjoint from MP space
	}
	master := NewOrderingBuffer(OrderingBufferConfig{
		Participants: shardIDs,
		Forward:      cfg.Forward,
		Sched:        cfg.Sched,
		Flight:       cfg.Flight,
	})
	s := &ShardedOB{Master: master, route: make(map[market.ParticipantID]*OBShard, len(cfg.Participants))}
	for i := 0; i < cfg.NumShards; i++ {
		shard := NewOBShard(ShardConfig{
			ID:            shardIDs[i],
			Members:       members[i],
			Sched:         cfg.Sched,
			EmitTrade:     master.OnTrade,
			EmitHeartbeat: master.OnHeartbeat,
			StragglerRTT:  cfg.StragglerRTT,
			GenTime:       cfg.GenTime,
			OnStraggler:   cfg.OnStraggler,
			Threshold:     cfg.Threshold,
			Flight:        cfg.Flight,
		})
		s.Shards = append(s.Shards, shard)
		for _, m := range members[i] {
			s.route[m] = shard
		}
	}
	return s
}

// OnTrade routes a trade to its participant's shard.
func (s *ShardedOB) OnTrade(t *market.Trade) {
	sh, ok := s.route[t.MP]
	if !ok {
		return
	}
	sh.OnTrade(t)
}

// OnHeartbeat routes a heartbeat to its participant's shard.
func (s *ShardedOB) OnHeartbeat(h market.Heartbeat) {
	sh, ok := s.route[h.MP]
	if !ok {
		return
	}
	sh.OnHeartbeat(h)
}

// Tick ticks every shard, then the master.
func (s *ShardedOB) Tick() {
	for _, sh := range s.Shards {
		sh.Tick()
	}
	s.Master.Tick()
}
