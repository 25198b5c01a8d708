package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// naiveZeroLanes is the per-lane reference the SWAR counters are
// checked against.
func naiveZeroLanes(x uint64, bits int) int {
	mask := laneMask(bits)
	n := 0
	for i := 0; i < 64; i += bits {
		if (x>>uint(i))&mask == 0 {
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
		if got, want := zeroNibbles(x), naiveZeroLanes(x, 4); got != want {
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
		if got, want := zeroNibbles(x), naiveZeroLanes(x, 4); got != want {
			t.Fatalf("zeroNibbles(%#x) = %d, want %d", x, got, want)
		}
	})
}

func TestPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, bits := range []int{64, 8} {
		// Odd slot counts exercise the partially-used final word.
		for _, slots := range []int{1, 3, 7, 8, 9, 32, 127, 128} {
			sig := make([]uint64, slots)
			for i := range sig {
				sig[i] = rng.Uint64()
			}
			a := newSigArena(slots, bits)
			a.appendSig(sig)
			packed := a.row(0)
			want := sigWords(slots, bits)
			if wantHi := map[int]int{8: want, 64: 0}[bits]; len(packed.lo) != want || len(packed.hi) != wantHi {
				t.Fatalf("bits=%d slots=%d: packed to %d+%d words, want %d+%d", bits, slots, len(packed.lo), len(packed.hi), want, wantHi)
			}
			back := a.appendLanes(nil, 0)
			mask := laneMask(bits)
			for i, v := range sig {
				if back[i] != v&mask {
					t.Fatalf("bits=%d slots=%d slot %d: unpacked %#x, want %#x", bits, slots, i, back[i], v&mask)
				}
			}
		}
	}
}

func TestPackedMatchingSlotsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, bits := range []int{64, 8} {
		mask := laneMask(bits)
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
						b[i] = (a[i] & mask) | (rng.Uint64() &^ mask)
					case 2: // equal low nibble: the low plane alone would count it
						b[i] = a[i] ^ (rng.Uint64() &^ 0xf)
					default:
						b[i] = rng.Uint64()
					}
					if a[i]&mask == b[i]&mask {
						want++
					}
				}
				pa := packAppend(planes{}, a, bits)
				pb := packAppend(planes{}, b, bits)
				if got := packedMatchingSlots(pa, pb, slots); got != want {
					t.Fatalf("bits=%d slots=%d trial %d: packedMatchingSlots = %d, want %d",
						bits, slots, trial, got, want)
				}
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
	const slots, bits = DefaultSignatureSize, 8
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
		px := packAppend(planes{}, x.Signature, bits)
		py := packAppend(planes{}, y.Signature, bits)
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
// that every packing width finds them: LSH and exact mode agree with
// each other at each width, and the top hits are the planted records.
func TestPackedSearchAgreesAcrossWidths(t *testing.T) {
	const n, planted = 1200, 30
	for _, bits := range []int{64, 8} {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) {
			eng := engineAt(t, "packed", bits)
			recs, base := plantedRecords(n, planted, 7)
			if oks, err := eng.AddBatch(recs); err != nil || countAdded(oks) != n {
				t.Fatalf("AddBatch added %d, %v; want %d, nil", countAdded(oks), err, n)
			}
			q := eng.Sketcher().Sketch(Record{Name: "query", Data: base})
			exact, err := SearchTopK(eng.Index(), q, 10, 0, eng.Pool())
			if err != nil {
				t.Fatal(err)
			}
			lsh, err := SearchTopKLSH(eng.Index(), q, 10, 0, eng.Pool())
			if err != nil {
				t.Fatal(err)
			}
			if len(exact) != 10 || len(lsh) != 10 {
				t.Fatalf("result lengths: exact=%d lsh=%d, want 10", len(exact), len(lsh))
			}
			for i := range exact {
				if exact[i] != lsh[i] {
					t.Fatalf("bits=%d result %d differs: exact=%+v lsh=%+v", bits, i, exact[i], lsh[i])
				}
			}
			for i, r := range exact[:5] {
				if r.Ref[:5] != "near-" {
					t.Fatalf("bits=%d: hit %d = %+v, want a planted near-duplicate", bits, i, r)
				}
			}
		})
	}
}

// TestSearchParallelMatchesSerial drives the per-shard fan-out path
// (corpus above parallelScoreMinBytes) and checks that fan-out worker counts
// never change the answer, in both modes.
func TestSearchParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a corpus above parallelScoreMinBytes")
	}
	const n = parallelScoreMinBytes/(DefaultSignatureSize/2) + 500 // 8-bit rows: a low plane of half a byte per slot
	eng := engineAt(t, "fanout", 8)
	recs, base := plantedRecords(n, 20, 5)
	if oks, err := eng.AddBatch(recs); err != nil || countAdded(oks) != n {
		t.Fatalf("AddBatch added %d, %v; want %d, nil", countAdded(oks), err, n)
	}
	q := eng.Sketcher().Sketch(Record{Name: "query", Data: base})
	for _, search := range []struct {
		name string
		fn   func(*Index, *Sketch, int, float64, *Pool) ([]Result, error)
	}{{"exact", SearchTopK}, {"lsh", SearchTopKLSH}} {
		// minSim 0.01 exercises the LSH fallback sweep too: candidates
		// score above it but cannot fill topK=50.
		serial, err := search.fn(eng.Index(), q, 50, 0.01, NewPool(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 16} {
			par, err := search.fn(eng.Index(), q, 50, 0.01, NewPool(workers))
			if err != nil {
				t.Fatal(err)
			}
			if len(par) != len(serial) {
				t.Fatalf("%s workers=%d: %d results, serial %d", search.name, workers, len(par), len(serial))
			}
			for i := range serial {
				if par[i] != serial[i] {
					t.Fatalf("%s workers=%d result %d: %+v, serial %+v", search.name, workers, i, par[i], serial[i])
				}
			}
		}
	}
}

// engineAt builds an engine whose arena packs at bits: in memory at 64,
// tiered over a temporary directory at 8, the one width that needs a
// full-width tier.
func engineAt(tb testing.TB, name string, bits int) *Engine {
	tb.Helper()
	opts := Options{IndexName: name, Bits: bits}
	if bits == 8 {
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
// near-duplicates of the returned base payload. It mirrors
// plantedCorpus but returns raw records so callers pick their own
// engine options.
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

// TestTruncatedSketchesDoNotMixWithFullWidth: packing below 64 bits
// happens only in a tiered index's prefilter, so no sketch is ever
// truncated: an in-memory index refuses Bits 8 with an error naming
// both fields. (TestTieredGetSketchFullWidth reads one back.)
func TestTruncatedSketchesDoNotMixWithFullWidth(t *testing.T) {
	const want = "Options.Bits 8 requires Options.Tiered"
	if _, err := NewEngine(Options{IndexName: "p8", Bits: 8}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("NewEngine(Bits 8) in memory: err = %v, want %q", err, want)
	}
	lsh := DefaultLSHParams(DefaultSignatureSize)
	if _, err := NewIndexWith("p8", DefaultK, DefaultSignatureSize, lsh, 1, 8); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("NewIndexWith(bits 8): err = %v, want %q", err, want)
	}
}

func TestArenaStats(t *testing.T) {
	for _, tc := range []struct {
		bits        int
		wantPerRec  float64
		wantSigSize int
	}{
		{64, 8 * DefaultSignatureSize, DefaultSignatureSize},
		{8, 1 * DefaultSignatureSize, DefaultSignatureSize},
	} {
		eng := engineAt(t, "arena", tc.bits)
		empty := eng.Index().Arena()
		if empty.SignatureBytes != 0 || empty.BytesPerRecord != 0 {
			t.Fatalf("bits=%d empty arena stats = %+v", tc.bits, empty)
		}
		const n = 100
		for i := 0; i < n; i++ {
			rec := Record{Name: fmt.Sprintf("r%d", i), Data: benchData(512, int64(i))}
			if _, err := addRecord(eng, rec); err != nil {
				t.Fatal(err)
			}
		}
		st := eng.Index().Arena()
		if st.Bits != tc.bits {
			t.Fatalf("arena bits = %d, want %d", st.Bits, tc.bits)
		}
		if st.BytesPerRecord != tc.wantPerRec {
			t.Fatalf("bits=%d bytes/record = %v, want %v", tc.bits, st.BytesPerRecord, tc.wantPerRec)
		}
		if st.SignatureBytes != int64(n*int(tc.wantPerRec)) {
			t.Fatalf("bits=%d signature bytes = %d, want %d", tc.bits, st.SignatureBytes, n*int(tc.wantPerRec))
		}
		if st.Utilization <= 0 || st.Utilization > 1 {
			t.Fatalf("bits=%d utilization = %v, want in (0,1]", tc.bits, st.Utilization)
		}
		// Engine stats surface the same numbers (the /stats payload).
		es := eng.Stats()
		if es.Bits != tc.bits || es.SignatureBytes != st.SignatureBytes ||
			es.BytesPerRecord != st.BytesPerRecord || es.ArenaUtilized != st.Utilization {
			t.Fatalf("bits=%d engine stats arena fields = %+v, want %+v", tc.bits, es, st)
		}
	}
}
