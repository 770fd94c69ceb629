// Package core implements Delivery Based Ordering (DBO), the paper's
// primary contribution (§4): the CES-side batcher, the per-participant
// release buffer with pacing and delivery-clock tagging, and the
// ordering buffer with heartbeat-driven enforcement, straggler
// mitigation, and sharded scaling.
//
// Ordering has one core, the watermark gate (gate.go): per-participant
// watermarks, liveness and RTT, the straggler state machine, and the
// cached minimum watermark over the participants not excluded. An
// OrderingBuffer is the gate plus the bucketed delivery-clock queue
// (bucketq.go) and releases what sits strictly below the minimum; an
// OBShard is the gate alone and forwards the minimum when it changes;
// a ShardedOB is shards wired to a master OrderingBuffer.
//
// The components are deliberately transport-agnostic: they take a
// Scheduler for timekeeping and callbacks for I/O, so the same code
// runs inside the deterministic simulator (internal/exchange) and the
// live UDP deployment (internal/node).
package core
