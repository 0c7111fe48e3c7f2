//go:build linux && (amd64 || arm64)

package runtime

import (
	"os"
	"sync"
	"syscall"
	"unsafe"
)

// CLOCK_MONOTONIC and the timerfd_create flags, from <time.h> and
// <sys/timerfd.h> (the syscall package carries the syscall numbers but
// not these).
const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

// newWakeTimer backs wakeups with a timerfd. The descriptor is
// non-blocking and wrapped in an os.File, which registers it with the Go
// netpoller: the reader goroutine parks in Read, and the timer's expiry
// is an epoll event — the one thing that brings an idle scheduler out of
// epoll_wait before its millisecond timeout. Returns nil and a no-op
// when the kernel refuses the timer (the clock then runs on Go timers
// alone).
func newWakeTimer() (*wakeups, func()) {
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, func() {}
	}
	f := os.NewFile(fd, "timerfd")
	w := &wakeups{settime: func(rel int64) {
		// struct itimerspec: no interval, so the timer fires once. The
		// call cannot block, hence the raw form that skips the scheduler
		// hand-off. It fails only on a bad descriptor or value, neither
		// of which add and expire can produce; were it to, the sleeper
		// still wakes on its Go timer.
		spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(rel)}
		_, _, _ = syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	}}
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		var expirations [8]byte
		for {
			// Read returns once the timer has fired (the count of
			// expirations, which nobody needs), or fails once stop has
			// closed the file.
			if _, err := f.Read(expirations[:]); err != nil {
				return
			}
			w.expire(monotonic())
		}
	}()
	return w, func() {
		// Detach first: the descriptor number may be reused the moment
		// the file is closed, and settime must not touch its new owner.
		w.close()
		_ = f.Close() // a timer holds no data to flush
		reader.Wait()
	}
}
