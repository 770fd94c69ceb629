//go:build !linux

package rt

import (
	"os"
	"time"
)

// openTimerfd returns nil: no timerfd on this platform, so the alarm is
// a runtime timer from the start.
func openTimerfd() (*os.File, int) { return nil, -1 }

func setTimerfd(int, time.Duration) {}
