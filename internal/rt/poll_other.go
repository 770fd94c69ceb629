//go:build !linux

package rt

import "time"

// epollSet does not exist here: every loop runs on the fallback.
type epollSet struct{}

func pollable() bool                     { return false }
func openEpoll([]watch) *epollSet        { return nil }
func (*epollSet) setAlarm(time.Duration) {}
func (*epollSet) wait(bool, []watch)     {}
func (*epollSet) kick()                  {}
func (*epollSet) close()                 {}
