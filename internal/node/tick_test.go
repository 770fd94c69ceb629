package node

import (
	"testing"

	"dbo/internal/sim"
)

func TestTickDeadline(t *testing.T) {
	const iv = 100 * sim.Microsecond
	for _, c := range []struct {
		name     string
		due, now sim.Time
		final    bool
		want     sim.Time
	}{
		{"first tick", 0, 3, false, iv},
		{"on time", 5 * iv, 5 * iv, false, 6 * iv},
		// The next deadline does not move with the lateness: cadence held.
		{"late by under a period", 5 * iv, 5*iv + 99, false, 6 * iv},
		// Missed periods are dropped, not sent as a burst.
		{"late by exactly a period", 5 * iv, 6 * iv, false, 7 * iv},
		{"late by several periods", 5 * iv, 8*iv + 40, false, 9*iv + 40},
		{"final tick", 5 * iv, 5 * iv, true, -1},
		{"final tick, late", 5 * iv, 9 * iv, true, -1},
	} {
		if got := tickDeadline(c.due, c.now, iv, c.final); got != c.want {
			t.Errorf("%s: tickDeadline(%d, %d) = %d, want %d", c.name, c.due, c.now, got, c.want)
		}
	}
	// Late fires cost their own tick only: n ticks each fired 30 % late
	// still end on the n-th deadline.
	var due sim.Time
	for i := 0; i < 1000; i++ {
		due = tickDeadline(due, due+iv*3/10, iv, false)
	}
	if due != 1000*iv {
		t.Errorf("1000 ticks fired 30%% late ended at %d, want %d", due, 1000*iv)
	}
}
