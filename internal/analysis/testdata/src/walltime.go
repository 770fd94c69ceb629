// Fixture for rule walltime, analyzed as package path "internal/sim"
// (not on the real-time allowlist).
package fixture

import (
	"time"
	stdtime "time"
)

func bad() {
	_ = time.Now()                  // want "walltime.*time.Now"
	time.Sleep(time.Second)         // want "walltime.*time.Sleep"
	_ = time.Since(time.Time{})     // want "walltime.*time.Since"
	_ = stdtime.Now()               // want "walltime.*time.Now"
	t := time.NewTimer(time.Second) // want "walltime.*time.NewTimer"
	_ = t
	tk := time.NewTicker(time.Second) // want "walltime.*time.NewTicker"
	_ = tk
}

func fine() {
	d := time.Duration(5) // pure conversion: no wall clock involved
	_ = d + time.Millisecond
	_, _ = time.ParseDuration("3ms")
}
