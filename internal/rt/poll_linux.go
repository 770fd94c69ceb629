//go:build linux

package rt

import (
	"encoding/binary"
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// clockMonotonic is CLOCK_MONOTONIC (linux/time.h). The frozen syscall
// package numbers the timerfd and eventfd calls and names none of their
// arguments; the TFD_* and EFD_* flags are the O_* ones.
const clockMonotonic = 1

// itimerspec is struct itimerspec (linux/time.h).
type itimerspec struct{ interval, value syscall.Timespec }

// The token in an event's Fd field; a watched socket's is its index.
const kickToken, alarmToken = -1, -2

// epollSet is a private epoll instance holding an eventfd (the kicks), a
// timerfd (the alarm) and the watched sockets, level-triggered. Made
// non-blocking and handed to os.NewFile, the instance is in the runtime's
// netpoller, and the loop parks in its RawConn.Read, whose callback only
// looks: an epoll_wait that blocked would hold the loop's P (DESIGN §8.9).
type epollSet struct {
	f, kickf, tf *os.File // the instance, the eventfd (written by other goroutines; a File closes safely under them), the timerfd
	fd, kfd, tfd int      // their descriptors, for the loop's own system calls
	rc           syscall.RawConn
	look         func(uintptr) bool // s.ready, bound once
	one, buf     [8]byte            // the eventfd increment; what a read-to-clear reads into
	evs          [16]syscall.EpollEvent
	n            int // events in evs from the last look
}

// pollable reports, once per process, whether the kernel gives an
// epollSet.
var pollable = sync.OnceValue(func() bool {
	s := openEpoll(nil)
	if s != nil {
		s.close()
	}
	return s != nil
})

// openEpoll returns the set with ws registered, or nil if the kernel
// refuses any part of it.
func openEpoll(ws []watch) *epollSet {
	fd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil
	}
	syscall.SetNonblock(fd, true) //nolint:errcheck // a blocking instance is not pollable, which SetReadDeadline reports
	s := &epollSet{f: os.NewFile(uintptr(fd), "epoll"), fd: fd}
	// Blocking when os.NewFile sees them, which keeps them out of the
	// netpoller; then non-blocking for the loop's reads.
	kfd, _, e1 := syscall.Syscall(syscall.SYS_EVENTFD2, 0, syscall.O_CLOEXEC, 0)
	if e1 == 0 {
		s.kickf, s.kfd = os.NewFile(kfd, "eventfd"), int(kfd)
	}
	tfd, _, e2 := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_CLOEXEC, 0)
	if e2 == 0 {
		s.tf, s.tfd = os.NewFile(tfd, "timerfd"), int(tfd)
	}
	ok := e1 == 0 && e2 == 0 && s.f.SetReadDeadline(time.Time{}) == nil &&
		syscall.SetNonblock(s.kfd, true) == nil && syscall.SetNonblock(s.tfd, true) == nil &&
		s.add(s.kfd, kickToken) == nil && s.add(s.tfd, alarmToken) == nil
	for i := 0; ok && i < len(ws); i++ {
		ok = ws[i].rc.Control(func(fd uintptr) { err = s.add(int(fd), i) }) == nil && err == nil
	}
	if !ok {
		s.close()
		return nil
	}
	s.rc, _ = s.f.SyscallConn() // fails only for a nil File
	binary.NativeEndian.PutUint64(s.one[:], 1)
	s.look = s.ready
	return s
}

func (s *epollSet) add(fd, token int) error {
	return syscall.EpollCtl(s.fd, syscall.EPOLL_CTL_ADD, fd, &syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(token)})
}

// setAlarm arms the timerfd once, wait from now. wait is positive: a
// zero it_value would disarm it.
func (s *epollSet) setAlarm(wait time.Duration) {
	its := itimerspec{value: syscall.NsecToTimespec(int64(wait))}
	syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(s.tfd), 0, uintptr(unsafe.Pointer(&its)), 0, 0, 0) //nolint:errcheck // fails only on a bad descriptor or pointer
}

// wait parks the loop goroutine until the set has something to report
// if block, and otherwise looks if there are sockets to look for; then
// it clears the kick and the alarm and marks the readable sockets.
func (s *epollSet) wait(block bool, ws []watch) {
	switch {
	case block:
		s.rc.Read(s.look) //nolint:errcheck // fails only once Run has closed the set
	case len(ws) > 0:
		s.ready(0)
	}
	for _, ev := range s.evs[:s.n] {
		switch ev.Fd {
		case kickToken:
			syscall.Read(s.kfd, s.buf[:]) //nolint:errcheck // EAGAIN: already clear
		case alarmToken:
			syscall.Read(s.tfd, s.buf[:]) //nolint:errcheck // EAGAIN: already clear
		default:
			ws[ev.Fd].ready = true
		}
	}
	s.n = 0
}

// ready looks at the set without waiting; as RawConn.Read's callback it
// returns false, to park until the set turns readable, on finding nothing.
func (s *epollSet) ready(uintptr) bool {
	for {
		n, err := syscall.EpollWait(s.fd, s.evs[:], 0)
		if err != syscall.EINTR {
			s.n = max(n, 0)
			return n != 0 || err != nil // on an error, parking would wait for an edge that cannot come
		}
	}
}

func (s *epollSet) kick() {
	s.kickf.Write(s.one[:]) //nolint:errcheck // fails only once Run has closed it, and then nothing sleeps on it
}

func (s *epollSet) close() {
	for _, f := range []*os.File{s.f, s.kickf, s.tf} {
		if f != nil {
			f.Close()
		}
	}
}
