package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// naiveZeroNibbles is the per-nibble reference the SWAR counters are
// checked against.
func naiveZeroNibbles(x uint64) int {
	n := 0
	for i := 0; i < 64; i += 4 {
		if x>>uint(i)&0xf == 0 {
			n++
		}
	}
	return n
}

func TestZeroLanesMatchesNaive(t *testing.T) {
	cases := []uint64{0, ^uint64(0), 1, 1 << 63, 0x0001000100010001, 0x0100010001000100, 0x1111111111111111, 0x8888888888888888}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10000; i++ {
		cases = append(cases, rng.Uint64())
		// Sparse values exercise the zero-lane-rich corner the fully
		// random draws almost never hit.
		cases = append(cases, rng.Uint64()&rng.Uint64()&rng.Uint64()&rng.Uint64())
	}
	for _, x := range cases {
		if got, want := zeroNibbles(x), naiveZeroNibbles(x); got != want {
			t.Fatalf("zeroNibbles(%#x) = %d, want %d", x, got, want)
		}
	}
}

// FuzzZeroNibbles cross-checks the branch-free SWAR nibble counter
// against the naive per-lane loop on arbitrary words.
func FuzzZeroNibbles(f *testing.F) {
	f.Add(uint64(0))
	f.Add(^uint64(0))
	f.Add(uint64(0x0001000100010001))
	f.Add(uint64(0x8000000000000000))
	f.Add(uint64(0x0F0F0F0F0F0F0F0F))
	f.Fuzz(func(t *testing.T, x uint64) {
		if got, want := zeroNibbles(x), naiveZeroNibbles(x); got != want {
			t.Fatalf("zeroNibbles(%#x) = %d, want %d", x, got, want)
		}
	})
}

func TestPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Odd slot counts exercise the partially-used final word.
	for _, slots := range []int{1, 3, 7, 8, 9, 32, 127, 128} {
		sig := make([]uint64, slots)
		for i := range sig {
			sig[i] = rng.Uint64()
		}
		a := newSigArena(slots)
		a.appendSig(sig)
		packed := a.row(0)
		if want := sigWords(slots); len(packed) != want {
			t.Fatalf("slots=%d: packed to %d words, want %d", slots, len(packed), want)
		}
		for i, v := range sig {
			if back := packed[i/lanesPerWord] >> (i % lanesPerWord * prefilterBits) & laneMask; back != v&laneMask {
				t.Fatalf("slots=%d slot %d: unpacked %#x, want %#x", slots, i, back, v&laneMask)
			}
		}
		if pad := slots % lanesPerWord; pad != 0 && packed[len(packed)-1]>>(pad*prefilterBits) != 0 {
			t.Fatalf("slots=%d: padding nibbles %#x, want zero", slots, packed[len(packed)-1])
		}
	}
}

func TestPackedMatchingSlotsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, slots := range []int{1, 5, 8, 9, 64, 127, 128} {
		for trial := 0; trial < 50; trial++ {
			a := make([]uint64, slots)
			b := make([]uint64, slots)
			want := 0
			for i := range a {
				a[i] = rng.Uint64()
				switch rng.Intn(4) {
				case 0: // identical slot
					b[i] = a[i]
				case 1: // equal only after truncation
					b[i] = (a[i] & laneMask) | (rng.Uint64() &^ laneMask)
				case 2: // equal low byte, so equal after truncation too
					b[i] = a[i] ^ (rng.Uint64() &^ 0xff)
				default:
					b[i] = rng.Uint64()
				}
				if a[i]&laneMask == b[i]&laneMask {
					want++
				}
			}
			pa := packAppend(nil, a)
			pb := packAppend(nil, b)
			if got := packedMatchingSlots(pa, pb, slots); got != want {
				t.Fatalf("slots=%d trial %d: packedMatchingSlots = %d, want %d", slots, trial, got, want)
			}
		}
	}
}

// TestPackedSimilarityWithinCollisionBound is the b-bit accuracy
// property: for random record pairs, the packed b-bit similarity can
// only exceed the unpacked 64-bit estimate (matching full slots always
// match truncated), and the excess stays within the analytical
// collision bound — non-matching slots collide on their low b bits with
// probability 2^-b, so the extra matches are Binomial(n-m, 2^-b) and a
// mean + 5 sigma + 1 envelope holds with overwhelming probability.
func TestPackedSimilarityWithinCollisionBound(t *testing.T) {
	const slots, bits = DefaultSignatureSize, prefilterBits
	s := mustSketcher(t, DefaultK, slots)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		// Pairs across the overlap spectrum: b edits a random prefix
		// of a's payload, so similarity sweeps ~0..1.
		data := benchData(2048, int64(trial))
		edited := make([]byte, len(data))
		copy(edited, data)
		cut := rng.Intn(len(edited))
		for j := 0; j < cut; j++ {
			edited[j] = byte('A' + rng.Intn(26))
		}
		x := s.Sketch(Record{Name: "x", Data: data})
		y := s.Sketch(Record{Name: "y", Data: edited})

		m64 := matchingSlots(x.Signature, y.Signature)
		px := packAppend(nil, x.Signature)
		py := packAppend(nil, y.Signature)
		mb := packedMatchingSlots(px, py, slots)
		if mb < m64 {
			t.Fatalf("bits=%d trial %d: packed matches %d < full-width matches %d", bits, trial, mb, m64)
		}
		mean := float64(slots-m64) / math.Pow(2, float64(bits))
		bound := mean + 5*math.Sqrt(mean) + 1
		if extra := float64(mb - m64); extra > bound {
			t.Fatalf("bits=%d trial %d: %v extra collisions exceeds bound %v (m64=%d)",
				bits, trial, extra, bound, m64)
		}
	}
}

// TestPackedSearchAgreesAcrossWidths plants near-duplicates and checks
// that the 4-bit prefilter finds them, over a heap and a directory full
// store: LSH and exact mode agree with each other and with the
// brute-force reference, and the top hits are the planted records.
func TestPackedSearchAgreesAcrossWidths(t *testing.T) {
	// The subtest is named for the width the manifest records.
	t.Run("bits=8", func(t *testing.T) {
		const n, planted = 1200, 30
		recs, base := plantedRecords(n, planted, 7)
		var q *Sketch
		var refs []*Sketch
		for _, dir := range []bool{false, true} {
			eng := engineAt(t, "packed", dir)
			if oks, err := eng.AddBatch(recs); err != nil || countAdded(oks) != n {
				t.Fatalf("AddBatch added %d, %v; want %d, nil", countAdded(oks), err, n)
			}
			q, refs = eng.Sketcher().Sketch(Record{Name: "query", Data: base}), sketchAll(eng.Sketcher(), recs)
			checkAgainstBrute(t, q, refs, 10, 0, eng.Index())
		}
		want := bruteTopK(q, refs, 10, 0)
		if len(want) != 10 {
			t.Fatalf("%d results, want 10", len(want))
		}
		for i, r := range want[:5] {
			if r.Ref[:5] != "near-" {
				t.Fatalf("hit %d = %+v, want a planted near-duplicate", i, r)
			}
		}
	})
}

// TestSearchParallelMatchesSerial drives the per-shard fan-out path
// (corpus above parallelScoreMinBytes) and checks that fan-out worker counts
// never change the answer, in both modes.
func TestSearchParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a corpus above parallelScoreMinBytes")
	}
	const n = parallelScoreMinBytes/(DefaultSignatureSize/2) + 500 // half a byte per slot
	eng := engineAt(t, "fanout", true)
	recs, base := plantedRecords(n, 20, 5)
	if oks, err := eng.AddBatch(recs); err != nil || countAdded(oks) != n {
		t.Fatalf("AddBatch added %d, %v; want %d, nil", countAdded(oks), err, n)
	}
	q := eng.Sketcher().Sketch(Record{Name: "query", Data: base})
	for _, mode := range modes {
		// minSim 0.01 exercises the LSH fallback sweep too: candidates
		// score above it but cannot fill topK=50.
		serial, err := search(eng.Index(), q, mode, 50, 0.01, NewPool(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 16} {
			par, err := search(eng.Index(), q, mode, 50, 0.01, NewPool(workers))
			if err != nil {
				t.Fatal(err)
			}
			if len(par) != len(serial) {
				t.Fatalf("%s workers=%d: %d results, serial %d", mode, workers, len(par), len(serial))
			}
			for i := range serial {
				if par[i] != serial[i] {
					t.Fatalf("%s workers=%d result %d: %+v, serial %+v", mode, workers, i, par[i], serial[i])
				}
			}
		}
	}
}

// engineAt builds an engine with the default geometry whose full
// store is on the heap, or over a temporary directory when dir is set.
func engineAt(tb testing.TB, name string, dir bool) *Engine {
	tb.Helper()
	opts := Options{IndexName: name}
	if dir {
		opts.Tiered, opts.DataDir = true, tb.TempDir()
	}
	eng, err := NewEngine(opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { eng.Index().Close() })
	return eng
}

// plantedRecords builds n records, the first `planted` of which are
// near-duplicates of the returned base payload (named "near-<i>"); the
// rest is random filler. Everything is deterministic in seed.
func plantedRecords(n, planted int, seed int64) ([]Record, []byte) {
	const recBytes = 256
	base := benchData(recBytes, seed)
	recs := make([]Record, 0, n)
	for i := 0; i < planted; i++ {
		data := make([]byte, len(base))
		copy(data, base)
		rng := rand.New(rand.NewSource(seed + int64(i) + 1))
		for j := 0; j < 5; j++ {
			data[rng.Intn(len(data))] = byte('a' + rng.Intn(26))
		}
		recs = append(recs, Record{Name: fmt.Sprintf("near-%d", i), Data: data})
	}
	for i := planted; i < n; i++ {
		recs = append(recs, Record{Name: fmt.Sprintf("rand-%d", i), Data: benchData(recBytes, seed+int64(i)+1000)})
	}
	return recs, base
}

// TestTruncatedSketchesDoNotMixWithFullWidth: packing happens only in
// the prefilter, so no sketch is ever truncated — Get on an in-memory
// index returns the full-width signature (TestTieredGetSketchFullWidth
// reads one back from a directory) — and no caller can ask for a width
// but 8, the one the manifest records.
func TestTruncatedSketchesDoNotMixWithFullWidth(t *testing.T) {
	eng, err := NewEngine(Options{IndexName: "p8", Bits: 8})
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{Name: "r", Data: benchData(512, 1)}
	if _, err := addRecord(eng, rec); err != nil {
		t.Fatal(err)
	}
	if got, want := eng.Index().Get("r"), eng.Sketcher().Sketch(rec); !slices.Equal(got.Signature, want.Signature) {
		t.Fatalf("Get = %x, want the full-width signature %x", got.Signature, want.Signature)
	}
	const wantErr = "unsupported packing width"
	for _, bits := range []int{1, 16, 64} {
		if _, err := NewEngine(Options{IndexName: "p", Bits: bits}); err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("NewEngine(Bits %d): err = %v, want %q", bits, err, wantErr)
		}
	}
}

func TestArenaStats(t *testing.T) {
	const wantPerRec = DefaultSignatureSize / 2 // one nibble a slot
	for _, dir := range []bool{false, true} {
		eng := engineAt(t, "arena", dir)
		empty := eng.Index().Arena()
		if empty.SignatureBytes != 0 || empty.BytesPerRecord != 0 {
			t.Fatalf("dir=%v empty arena stats = %+v", dir, empty)
		}
		const n = 100
		for i := 0; i < n; i++ {
			rec := Record{Name: fmt.Sprintf("r%d", i), Data: benchData(512, int64(i))}
			if _, err := addRecord(eng, rec); err != nil {
				t.Fatal(err)
			}
		}
		st := eng.Index().Arena()
		if st.Bits != 4 || st.BytesPerRecord != wantPerRec || st.SignatureBytes != n*wantPerRec {
			t.Fatalf("dir=%v arena stats = %+v, want 4 bits, %d bytes/record, %d bytes", dir, st, wantPerRec, n*wantPerRec)
		}
		if st.Utilization <= 0 || st.Utilization > 1 {
			t.Fatalf("dir=%v utilization = %v, want in (0,1]", dir, st.Utilization)
		}
		// Engine stats surface the same numbers (the /stats payload).
		es := eng.Stats()
		if es.Bits != st.Bits || es.SignatureBytes != st.SignatureBytes ||
			es.BytesPerRecord != st.BytesPerRecord || es.ArenaUtilized != st.Utilization {
			t.Fatalf("dir=%v engine stats arena fields = %+v, want %+v", dir, es, st)
		}
	}
}
