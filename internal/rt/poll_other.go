//go:build !linux

package rt

import (
	"syscall"
	"time"
)

// epollSet does not exist here, so openEpoll refuses every loop.
type epollSet struct{}

func openEpoll([]watch) *epollSet                  { return nil }
func (*epollSet) watch(syscall.RawConn, int) error { return nil }
func (*epollSet) unwatch(syscall.RawConn)          {}
func (*epollSet) setAlarm(time.Duration)           {}
func (*epollSet) wait(bool, []watch)               {}
func (*epollSet) kick()                            {}
func (*epollSet) close()                           {}
