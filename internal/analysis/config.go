package analysis

// Config is the single place every per-rule allowlist lives. Paths are
// module-relative directory paths; an entry covers the directory and
// everything beneath it.
type Config struct {
	// WallTimeAllow lists the real-time packages where wall-clock calls
	// (time.Now, time.Sleep, …) are legitimate: the wall-clock event
	// loop, the network transports, the live deployment nodes, and the
	// operator-facing binaries. Everything else — the sim/check/replay
	// pipeline in particular — must be wall-clock-free so seeded runs
	// replay deterministically.
	WallTimeAllow []string

	// ClockCmpAllow lists the packages that own the canonical
	// delivery-clock comparator (§4.1.1). Only they may order
	// DeliveryClock fields directly; everyone else goes through
	// Compare/Less/AtLeast.
	ClockCmpAllow []string

	// ErrDropScope lists the packages whose Submit/Deliver/Release hot
	// paths may never silently discard an error result (rule errdrop).
	ErrDropScope []string

	// PoolAPIs lists the pooled-object APIs whose single-owner contract
	// the poolowner rule enforces: objects handed out by Type.Get are
	// owned until Type.Put, after which any use, second Put, or
	// previously escaped reference is a finding.
	PoolAPIs []PoolAPI

	// AllocFreeRoots pins the hot-path entry points whose entire static
	// call-graph closure (bounded to AllocFreeScope) must be free of
	// allocation sites. The set mirrors exactly what the runtime probes
	// (TestPipelineZeroAlloc, TestWireZeroAlloc) drive, plus the sharded
	// tick path, so the static rule covers every reachable branch — not
	// just the ones a benchmark iteration happens to execute.
	AllocFreeRoots []HotPathRoot

	// AllocFreeScope bounds the allocfree reachability walk: edges into
	// packages outside these prefixes are not traversed (documented
	// soundness caveat — external callees are vouched for by the runtime
	// probes instead).
	AllocFreeScope []string

	// DetSurfaces lists the deterministic-surface packages (rule
	// detsource): everything reachable from them inside DetScope must be
	// free of nondeterminism sources, or seeded replay stops being
	// byte-identical.
	DetSurfaces []string

	// DetSinks names the ordering comparators whose direct callers join
	// the deterministic surface even outside DetSurfaces — code feeding
	// market's ordering decisions must itself be deterministic. Entries
	// use the HotPathRoot shape: {Pkg: "internal/market", Func:
	// "(Ordering).Less"}.
	DetSinks []HotPathRoot

	// DetScope bounds the detsource taint walk exactly like
	// AllocFreeScope bounds allocfree: edges into packages outside these
	// prefixes are not traversed (external callees are vouched for by
	// the replay tests).
	DetScope []string

	// EnabledRules selects which rules run (nil or empty = all). The
	// driver's -rules flag sets this; the bad-ignore/unused-ignore
	// directive pseudo-rules always run, except that a directive naming
	// a disabled rule is never reported unused.
	EnabledRules []string
}

// PoolAPI names one pooled-object API by the fully qualified type that
// owns the free list plus its acquire/release method names.
type PoolAPI struct {
	Type string // fully qualified type name, e.g. "dbo/internal/market.TradePool"
	Get  string // method returning an owned object
	Put  string // method releasing ownership
}

// HotPathRoot names one allocfree entry point: a module-relative
// package path and a function display name as FuncDisplay renders it
// ("DecodeInto", "(OrderingBuffer).OnTrade").
type HotPathRoot struct {
	Pkg  string
	Func string
}

// ruleEnabled reports whether a rule is selected by EnabledRules
// (everything is, when the list is empty).
func (c *Config) ruleEnabled(name string) bool {
	if len(c.EnabledRules) == 0 {
		return true
	}
	for _, r := range c.EnabledRules {
		if r == name {
			return true
		}
	}
	return false
}

// Default is dbo-vet's configuration for this repository.
func Default() *Config {
	return &Config{
		WallTimeAllow: []string{
			"internal/rt",        // the wall-clock event loop itself
			"internal/transport", // socket I/O deadlines and pacing
			"internal/node",      // live deployment nodes own real clocks
			"cmd",                // operator binaries
			"examples",           // runnable demos
		},
		ClockCmpAllow: []string{
			"internal/market", // DeliveryClock.Compare/Less/AtLeast
			"internal/clock",  // the per-participant tracker
		},
		ErrDropScope: []string{
			"internal/audit", // violation reporting must never silently fail
			"internal/core",
			"internal/exchange",
			"internal/gateway",
			"internal/flight",
			"internal/metrics",
			"internal/market",    // pool/ordering helpers feed the hot path
			"internal/wire",      // DecodeInto errors must reach the caller
			"internal/transport", // a swallowed framing error hides reverse-path corruption
		},
		PoolAPIs: []PoolAPI{
			// The trade pool: Get hands out a zeroed *Trade owned by the
			// caller until Put returns it to the free list.
			{Type: "dbo/internal/market.TradePool", Get: "Get", Put: "Put"},
			// The bucketed queue's free list: newBucket acquires,
			// recycle releases.
			{Type: "dbo/internal/core.bucketQueue", Get: "newBucket", Put: "recycle"},
		},
		AllocFreeRoots: []HotPathRoot{
			// The tag→enqueue→release pipeline exactly as
			// TestPipelineZeroAlloc drives it (experiment.Pipeline.Step).
			{Pkg: "internal/core", Func: "(OrderingBuffer).OnTrade"},
			{Pkg: "internal/core", Func: "(OrderingBuffer).OnHeartbeat"},
			{Pkg: "internal/core", Func: "(OrderingBuffer).Tick"},
			{Pkg: "internal/core", Func: "(ReleaseBuffer).OnData"},
			{Pkg: "internal/core", Func: "(ReleaseBuffer).OnTrade"},
			// The paced release's timer entry: scheduled as a stored func
			// value, which the call graph does not follow from tryRelease
			// (the runtime probe is TestPacedReleaseZeroAlloc).
			{Pkg: "internal/core", Func: "(ReleaseBuffer).firePaced"},
			{Pkg: "internal/core", Func: "(ShardedOB).Tick"},
			{Pkg: "internal/market", Func: "(TradePool).Get"},
			{Pkg: "internal/market", Func: "(TradePool).Put"},
			// The codec surface TestWireZeroAlloc pins.
			{Pkg: "internal/wire", Func: "DecodeInto"},
			{Pkg: "internal/wire", Func: "DecodeTradeInto"},
			{Pkg: "internal/wire", Func: "AppendTrade"},
			{Pkg: "internal/wire", Func: "AppendHeartbeat"},
			{Pkg: "internal/wire", Func: "AppendMarketData"},
			// One simulated event and one simulated message: schedule,
			// dispatch, and a link send (the runtime probes are
			// TestKernelEventZeroAlloc and TestLinkSendZeroAlloc).
			{Pkg: "internal/sim", Func: "(Kernel).At"},
			{Pkg: "internal/sim", Func: "(Kernel).Schedule"},
			{Pkg: "internal/sim", Func: "(Kernel).step"},
			{Pkg: "internal/netsim", Func: "(Link).Send"},
			// One live message, socket to core and back out: the loop's
			// reads of its sockets, a closure-free timer, a write of
			// encoded bytes, and the nodes' receive switches (the runtime
			// probes are TestDrainZeroAlloc, TestTCPDrainZeroAlloc,
			// TestLoopScheduleZeroAlloc and TestLiveIngestAllocBudget).
			// The CES switch carries the path's one deliberate
			// allocation, the retained trade. The drains' read callbacks
			// and the end-of-turn egress flush are stored funcs the call
			// graph does not follow, so each is a root of its own, as is
			// the segmented send under the flush (probes:
			// TestEndOfTurnZeroAlloc, TestWriteSegments). The loop sets
			// its alarm before every sleep (TestArmZeroAlloc).
			{Pkg: "internal/rt", Func: "(Loop).Schedule"},
			{Pkg: "internal/rt", Func: "(Loop).arm"},
			{Pkg: "internal/transport", Func: "(Endpoint).Drain"},
			{Pkg: "internal/transport", Func: "(Endpoint).drain"},
			{Pkg: "internal/transport", Func: "(TCPConn).Drain"},
			{Pkg: "internal/transport", Func: "(TCPConn).read"},
			{Pkg: "internal/transport", Func: "(Endpoint).Write"},
			{Pkg: "internal/transport", Func: "(Endpoint).WriteSegments"},
			{Pkg: "internal/node", Func: "(CES).flush"},
			{Pkg: "internal/node", Func: "(CES).onMessage"},
			{Pkg: "internal/node", Func: "(MP).onMessage"},
			// One order into the matching engine: a submit that crosses,
			// rests or both, and a cancel (the runtime probe is
			// TestSubmitZeroAlloc). The rejection returns build an error,
			// which the rule treats as cold; the one ignore is the book
			// built on a symbol's first order.
			{Pkg: "internal/lob", Func: "(Engine).Submit"},
			{Pkg: "internal/lob", Func: "(Book).SubmitTIF"},
			{Pkg: "internal/lob", Func: "(Book).Cancel"},
		},
		DetSurfaces: []string{
			// The seeded replay pipeline: identical seeds must produce
			// byte-identical traces and oracle verdicts.
			"internal/sim",
			"internal/check",
			"internal/flight",
		},
		DetSinks: []HotPathRoot{
			// The canonical delivery-clock comparators: anything that
			// feeds an ordering decision must be deterministic.
			{Pkg: "internal/market", Func: "(Ordering).Less"},
			{Pkg: "internal/market", Func: "(DeliveryClock).Less"},
			{Pkg: "internal/market", Func: "(DeliveryClock).Compare"},
		},
		DetScope: []string{
			// The deterministic pipeline: sim/check/flight plus the pure
			// ordering/clock machinery they call into. The wall-clock
			// packages (rt, transport, node) are deliberately outside —
			// they are allowed to be timing-driven.
			"internal/sim",
			"internal/check",
			"internal/flight",
			"internal/market",
			"internal/core",
			"internal/clock",
		},
		AllocFreeScope: []string{
			// internal/flight is deliberately outside the scope: flight
			// recording is an opt-in diagnostic gated by Recorder.Enabled
			// and the zero-alloc contract is only claimed with it off.
			"internal/core",
			"internal/market",
			"internal/wire",
			"internal/clock",
			"internal/sim",
			"internal/netsim",
			"internal/rt",
			"internal/transport",
			"internal/lob",
		},
	}
}
