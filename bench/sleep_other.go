//go:build !linux

package main

import "time"

// sleepUntil returns once start+due has passed. Where the runtime's
// timers are all there is, the open loop's dispatcher runs up to a
// millisecond late; loadgen.lateness_p99_us says by how much.
func sleepUntil(start time.Time, due time.Duration) {
	time.Sleep(due - time.Since(start))
}
