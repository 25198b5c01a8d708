package core

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// FuzzOpenSegment feeds openSegment arbitrary file bytes and manifest
// geometry (base, slots, rows, crc), seeded from real writeSegment
// output, on the mmap path and on the pread path. Each must refuse with
// an error naming the file, or open a segment whose every row reads back
// the file's bytes through both rowWords and forEachRow; the two paths
// must agree, and neither may panic. The geometry is bounded so that the
// size check, not a loop over rows, is what meets an absurd row count.
func FuzzOpenSegment(f *testing.F) {
	dir := f.TempDir()
	for _, g := range []struct{ base, slots, rows int }{{0, 4, 3}, {24, 16, 2}, {7, 1, 0}} {
		words := make([]uint64, g.slots*g.rows)
		for i := range words {
			words[i] = uint64(i+1) * 0x9e3779b97f4a7c15
		}
		path := filepath.Join(dir, "seed.seg")
		crc, err := writeSegment(path, g.base, g.slots, g.rows, words)
		raw, rerr := os.ReadFile(path)
		if err != nil || rerr != nil {
			f.Fatal(err, rerr)
		}
		f.Add(raw, g.base, g.slots, g.rows, crc)
	}
	f.Fuzz(func(t *testing.T, raw []byte, base, slots, rows int, crc uint32) {
		if slots < 1 || slots > 1<<10 || rows < 0 || rows > 1<<20 {
			return
		}
		path := filepath.Join(t.TempDir(), "shard-0000-000001.seg")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		defer func(was bool) { mmapForceFallback = was }(mmapForceFallback)
		opened := map[bool]bool{}
		for _, fallback := range []bool{false, true} {
			mmapForceFallback = fallback
			sg, err := openSegment(path, base, slots, rows, crc)
			if opened[fallback] = err == nil; err != nil {
				if !strings.Contains(err.Error(), path) {
					t.Fatalf("error does not name the file: %v", err)
				}
				continue
			}
			var sc rowScratch
			for r := 0; r < rows; r++ {
				want := leWords(raw[segHeaderSize+r*slots*8:][:slots*8])
				if got, err := sg.rowWords(r, &sc); err != nil || !slices.Equal(got, want) {
					t.Fatalf("row %d (fallback %v) = %v, %v; the file holds %v", r, fallback, got, err, want)
				}
			}
			n := 0
			if err := sg.forEachRow(func(r int, sig []uint64) error {
				if !slices.Equal(sig, leWords(raw[segHeaderSize+r*slots*8:][:slots*8])) {
					t.Fatalf("forEachRow row %d (fallback %v) = %v", r, fallback, sig)
				}
				n++
				return nil
			}); err != nil || n != rows {
				t.Fatalf("forEachRow (fallback %v) visited %d of %d rows: %v", fallback, n, rows, err)
			}
			sg.close()
		}
		if opened[false] != opened[true] {
			t.Fatalf("the mmap path opened %v, the pread path %v", opened[false], opened[true])
		}
	})
}

// leWords decodes little-endian uint64 words.
func leWords(b []byte) []uint64 {
	w := make([]uint64, len(b)/8)
	for i := range w {
		w[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return w
}
