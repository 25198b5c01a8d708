//go:build !amd64 || purego

package core

// matchCounts is the portable kernel on every architecture without an
// assembly one, and on amd64 under the purego build tag.
func matchCounts(dst []uint16, rows, q []uint64, bits int) {
	matchCountsPortable(dst, rows, q, bits)
}

func cpuHasAVX2() bool { return false }
