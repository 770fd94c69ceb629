//go:build linux

package rt

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// clockMonotonic is CLOCK_MONOTONIC (linux/time.h). The frozen syscall
// package numbers the timerfd calls and names none of their arguments;
// the TFD_* flags are the O_* ones.
const clockMonotonic = 1

// itimerspec is struct itimerspec (linux/time.h).
type itimerspec struct{ interval, value syscall.Timespec }

// openTimerfd returns a non-blocking timerfd as a file in the runtime's
// netpoller, and its descriptor; nil where the kernel refuses one.
func openTimerfd() (*os.File, int) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, -1
	}
	f := os.NewFile(fd, "timerfd")
	if f.SetReadDeadline(time.Time{}) != nil {
		// Not in the netpoller (epoll refused it): Read would fail with
		// EAGAIN where it has to park, and no timer would ever fire.
		f.Close()
		return nil, -1
	}
	return f, int(fd)
}

// setTimerfd arms the timer once, wait from now. wait is positive: a
// zero it_value would disarm it.
func setTimerfd(fd int, wait time.Duration) {
	its := itimerspec{value: syscall.NsecToTimespec(int64(wait))}
	syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(fd), 0, uintptr(unsafe.Pointer(&its)), 0, 0, 0) //nolint:errcheck // fails only on a bad descriptor or pointer
}
