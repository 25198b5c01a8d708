package main

import "time"

// The machine-speed canary. The reference machine is two virtual CPUs
// of a shared host whose speed, for the same instructions, moves by a
// third to a half for minutes at a time (README, "Measuring on a shared
// two-CPU sandbox"): a timing of the system under test measures the
// host's other tenants as much as the program. The canary is a fixed
// piece of work owned by the benchmark, run beside what is being timed,
// and every bounded timing is reported at the reference speed: divided
// (a time) or multiplied (a rate) by how much slower than nominal the
// canary ran in the same run.
//
// One slice has two parts, because the host slows code that lives in
// the core and code that waits for memory by different amounts and the
// serving path is a mix of both:
//
//   - core: sum a 16 KiB array, which stays in L1, 512 times over: a
//     load and an add per cycle, no misses;
//   - memory: sum the next 8 MiB window of a 64 MiB array, which no
//     cache of the machine holds by the time the window comes round
//     again.
//
// Candidates were run inside the closed loop of all four workloads
// through forty minutes of alternating host states. A dependent chain of
// shifts and xors moved a fifth to a tenth as much as the workloads'
// CPU time per operation; a sum out of cache alone over-corrected two
// workloads and a sum out of memory alone under-corrected two; the two
// together followed all of them (correlation 0.96 to 0.98, log-log slope
// 0.9 to 1.4). Slices taken before and after a set-up, in an otherwise
// idle process, did not follow the set-up at all: the canary has to
// share the machine with the work it stands for, so it runs inside the
// closed loop's clients and on a goroutine beside a set-up.
const (
	canaryCoreWords  = 2 << 10 // 16 KiB
	canaryCoreLaps   = 512     // 1 Mi words per slice
	canaryMemWords   = 1 << 20 // 8 MiB per slice
	canaryMemWindows = 8       // 64 MiB
	// Nominal times of the two parts: the reference machine's in its
	// fast state. They only fix the scale of the index (1 there).
	canaryCoreNominal = 400 * time.Microsecond
	canaryMemNominal  = 1400 * time.Microsecond
	// canaryEvery is how often a closed-loop client stops for a slice:
	// under 2 % of its time.
	canaryEvery = 100 * time.Millisecond
	// canaryPause is the pause between slices beside a set-up, which
	// lasts a tenth as long as a closed loop: a tenth of one CPU.
	canaryPause = 20 * time.Millisecond
)

var (
	canaryCore = filled(canaryCoreWords)
	canaryMem  = filled(canaryMemWords * canaryMemWindows) // written, so every page is a page of its own
)

func filled(n int) []uint64 {
	a := make([]uint64, n)
	for i := range a {
		a[i] = uint64(i)
	}
	return a
}

func sum(a []uint64) (x uint64) {
	for _, v := range a {
		x += v
	}
	return x
}

// canary is one goroutine's series of slices.
type canary struct {
	window    int
	core, mem []float64 // each part's time as a share of its nominal time
	sink      uint64    // keeps the sums alive
}

// slice runs both parts once and returns when it finished.
func (c *canary) slice() time.Time {
	t0 := time.Now()
	var x uint64
	for i := 0; i < canaryCoreLaps; i++ {
		x += sum(canaryCore)
	}
	t1 := time.Now()
	w := c.window % canaryMemWindows * canaryMemWords
	x += sum(canaryMem[w : w+canaryMemWords])
	t2 := time.Now()
	c.sink += x
	c.window++
	c.core = append(c.core, float64(t1.Sub(t0))/float64(canaryCoreNominal))
	c.mem = append(c.mem, float64(t2.Sub(t1))/float64(canaryMemNominal))
	return t2
}

// runBeside runs f with a goroutine beside it that takes a slice and
// pauses, in turn, until f returns.
func (c *canary) runBeside(f func()) {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				c.slice()
				time.Sleep(canaryPause)
			}
		}
	}()
	f()
	close(stop)
	<-done
}

// slowness is how much slower than nominal the machine ran the slices
// of cs: the mean of the two parts' median shares, 1 on the reference
// machine in its fast state.
func slowness(cs ...*canary) float64 {
	var core, mem []float64
	for _, c := range cs {
		core = append(core, c.core...)
		mem = append(mem, c.mem...)
	}
	if len(core) == 0 {
		return 1
	}
	return (percentile(core, 0.5) + percentile(mem, 0.5)) / 2
}
