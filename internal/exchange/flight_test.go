package exchange

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"dbo/internal/flight"
	"dbo/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// flightCfg is a small seeded DBO workload whose full trace fits the
// recorder with no ring drops (drops are deterministic too, but a
// complete trace keeps the golden file meaningful).
func flightCfg(rec *flight.Recorder, shards int) Config {
	return Config{
		Scheme:   DBO,
		Seed:     42,
		N:        3,
		Duration: 2 * sim.Millisecond,
		Warmup:   sim.Millisecond,
		Drain:    2 * sim.Millisecond,
		OBShards: shards,
		Flight:   rec,
	}
}

func recordTrace(t *testing.T, shards int) ([]flight.Event, []byte) {
	t.Helper()
	rec := flight.NewRecorder(1 << 16)
	Run(flightCfg(rec, shards))
	if d := rec.Dropped(); d != 0 {
		t.Fatalf("ring dropped %d events; grow the test capacity", d)
	}
	events := rec.Snapshot()
	var buf bytes.Buffer
	if err := flight.Write(&buf, events); err != nil {
		t.Fatal(err)
	}
	return events, buf.Bytes()
}

// TestFlightTraceDeterministic is the tentpole guarantee: the same seed
// produces a byte-identical NDJSON trace, run after run, sharded or not.
func TestFlightTraceDeterministic(t *testing.T) {
	t.Parallel()
	for _, shards := range []int{1, 2} {
		_, a := recordTrace(t, shards)
		_, b := recordTrace(t, shards)
		if !bytes.Equal(a, b) {
			t.Fatalf("shards=%d: same seed produced different traces (%d vs %d bytes)", shards, len(a), len(b))
		}
		if len(a) == 0 {
			t.Fatalf("shards=%d: empty trace", shards)
		}
	}
}

// TestFlightTraceGolden pins the serialized trace against a checked-in
// golden file, so schema or ordering drift is an explicit, reviewed
// change. Regenerate with: go test ./internal/exchange -run Golden -update
func TestFlightTraceGolden(t *testing.T) {
	t.Parallel()
	_, got := recordTrace(t, 1)
	path := filepath.Join("testdata", "flight_golden.ndjson")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace diverged from golden (%d vs %d bytes); rerun with -update if intentional", len(got), len(want))
	}
}

// TestFlightAttributionComplete checks the analyzer-level invariants on
// a real simulated trace: every held release names a blocker, every
// released trade has a full lifecycle, and pacing honours δ.
func TestFlightAttributionComplete(t *testing.T) {
	t.Parallel()
	for _, shards := range []int{1, 2} {
		events, _ := recordTrace(t, shards)
		if n := flight.UnattributedHeld(events); n != 0 {
			t.Fatalf("shards=%d: %d held releases with no blocker", shards, n)
		}
		s := flight.Summarize(events)
		if s.Releases == 0 {
			t.Fatalf("shards=%d: no releases in trace", shards)
		}
		for _, tl := range flight.Timelines(events) {
			if tl.Released == flight.TimeUnset {
				continue // still queued when the capture ended
			}
			if tl.Submitted == flight.TimeUnset || tl.Enqueued == flight.TimeUnset {
				t.Fatalf("shards=%d: released trade %d:%d missing earlier stages: %+v", shards, tl.MP, tl.Seq, tl)
			}
			if tl.Hold > 0 && tl.Blocker == 0 {
				t.Fatalf("shards=%d: held trade %d:%d unattributed", shards, tl.MP, tl.Seq)
			}
		}
		delta := flightCfg(nil, shards).withDefaults().Delta
		if p := flight.CheckPacing(events, delta); len(p.Violations) != 0 {
			t.Fatalf("shards=%d: %d pacing violations, first %+v", shards, len(p.Violations), p.Violations[0])
		}
	}
}
