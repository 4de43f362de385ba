package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// waker sleeps until a deadline with microsecond precision. time.Sleep
// rounds short sleeps up to the runtime's millisecond timer tick — as
// long as the mean gap between arrivals at 1,000 req/s — which would
// show as generator lateness in every request's latency. A timerfd
// read parks the goroutine in the netpoller, which wakes on the
// kernel's high-resolution timer, without holding a P while it waits.
type waker struct {
	f   *os.File
	buf [8]byte
}

type itimerspec struct {
	interval, value syscall.Timespec
}

func newWaker() (*waker, error) {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, 0x800, 0x80000
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &waker{f: os.NewFile(fd, "timerfd")}, nil
}

// sleep blocks for d (> 0).
func (w *waker) sleep(d time.Duration) error {
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, w.f.Fd(), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	_, err := w.f.Read(w.buf[:])
	return err
}

func (w *waker) close() error { return w.f.Close() }
