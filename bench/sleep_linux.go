package main

import (
	"syscall"
	"time"
)

// sleepUntil returns once start+due has passed. time.Sleep will not do:
// with every P idle the runtime parks in epoll_wait, whose timeout is in
// whole milliseconds, so a 300 µs sleep takes a millisecond. A
// nanosleep system call keeps the kernel's timer precision (some 70 µs
// of overshoot on the reference machine). The overshoot is the
// generator's lateness: it is inside every latency and reported on its
// own as loadgen.lateness_p99_us.
func sleepUntil(start time.Time, due time.Duration) {
	for d := due - time.Since(start); d > 0; d = due - time.Since(start) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up (a signal) goes round again
	}
}
