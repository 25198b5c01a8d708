package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestNewLSHParams(t *testing.T) {
	cases := []struct {
		name        string
		bands, rows int
		sigSize     int
		wantErr     string
	}{
		{"default 128", 32, 4, 128, ""},
		{"coarse 128", 16, 8, 128, ""},
		{"single band", 1, 128, 128, ""},
		{"single row", 128, 1, 128, ""},
		{"tiny sig", 2, 1, 2, ""},
		{"undercover", 16, 4, 128, "does not cover"},
		{"overcover", 64, 4, 128, "does not cover"},
		{"zero bands", 0, 4, 128, "must be positive"},
		{"zero rows", 32, 0, 128, "must be positive"},
		{"negative bands", -32, -4, 128, "must be positive"},
		{"zero sig", 1, 1, 0, "does not cover"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewLSHParams(tc.bands, tc.rows, tc.sigSize)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("NewLSHParams(%d, %d, %d) err = %v, want containing %q",
						tc.bands, tc.rows, tc.sigSize, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("NewLSHParams(%d, %d, %d): %v", tc.bands, tc.rows, tc.sigSize, err)
			}
			if p.Bands != tc.bands || p.RowsPerBand != tc.rows {
				t.Fatalf("params = %+v, want bands=%d rows=%d", p, tc.bands, tc.rows)
			}
		})
	}
}

func TestDefaultLSHParams(t *testing.T) {
	cases := []struct {
		sigSize, wantBands, wantRows int
	}{
		{128, 32, 4}, // default signature size: 32 bands of 4
		{64, 16, 4},  // divisible by 4
		{9, 3, 3},    // falls back to 3 rows
		{10, 5, 2},   // falls back to 2 rows
		{7, 7, 1},    // prime: 1 row per band
		{1, 1, 1},    // degenerate
	}
	for _, tc := range cases {
		p := DefaultLSHParams(tc.sigSize)
		if p.Bands != tc.wantBands || p.RowsPerBand != tc.wantRows {
			t.Errorf("DefaultLSHParams(%d) = %+v, want bands=%d rows=%d",
				tc.sigSize, p, tc.wantBands, tc.wantRows)
		}
		if _, err := NewLSHParams(p.Bands, p.RowsPerBand, tc.sigSize); err != nil {
			t.Errorf("DefaultLSHParams(%d) = %+v does not validate: %v", tc.sigSize, p, err)
		}
	}
}

func TestLSHThreshold(t *testing.T) {
	// Threshold = (1/b)^(1/r); spot-check the default scheme and the
	// monotonic effect of banding: more bands (shorter rows) lower the
	// detection threshold.
	def := DefaultLSHParams(128)
	if got, want := def.Threshold(), math.Pow(1.0/32.0, 0.25); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Threshold() = %v, want %v", got, want)
	}
	coarse := LSHParams{Bands: 16, RowsPerBand: 8}
	if def.Threshold() >= coarse.Threshold() {
		t.Fatalf("32x4 threshold %v should be below 16x8 threshold %v",
			def.Threshold(), coarse.Threshold())
	}
}

func TestBandKeyDependsOnBandAndRows(t *testing.T) {
	p := LSHParams{Bands: 4, RowsPerBand: 2}
	sig := []uint64{1, 2, 1, 2, 1, 2, 9, 2}
	// Bands 0, 1 and 2 hold identical rows; the band index must still
	// separate their buckets.
	if p.bandKey(0, sig) != p.bandKey(0, sig) {
		t.Fatal("bandKey is not deterministic")
	}
	if p.bandKey(0, sig) == p.bandKey(1, sig) {
		t.Fatal("identical rows in different bands must hash to different keys")
	}
	// Band 3 differs from band 0 in one row and must (with overwhelming
	// probability) get a different key.
	other := []uint64{1, 2, 1, 2, 1, 2, 1, 2}
	if p.bandKey(3, sig) == p.bandKey(3, other) {
		t.Fatal("different rows hashed to the same band key")
	}
	// Keys see only the low byte of every slot: values differing above
	// it land in the same bucket, values differing within it do not.
	high := []uint64{1 | 5<<8, 2, 1, 2, 1, 2, 9, 2} // differs from sig only above bit 8
	if p.bandKey(0, sig) != p.bandKey(0, high) {
		t.Fatal("high-bit difference changed the band key")
	}
	low := []uint64{3, 2, 1, 2, 1, 2, 9, 2}
	if p.bandKey(0, sig) == p.bandKey(0, low) {
		t.Fatal("low-bit difference did not change the band key")
	}
}

// probeNames runs the index-level candidate probe for sig against ix
// and returns the candidate record names.
func probeNames(ix *Index, sig []uint64) map[string]bool {
	buf := getSearchBuf()
	defer putSearchBuf(buf)
	query := &Sketch{Name: "probe", K: ix.meta.K, Shingles: 1, Signature: sig}
	q := buf.prepare(query, 0, len(ix.shards))
	buf.prepareBandKeys(ix, query)
	probeCandidates(ix.posts, ix.shards, q, buf.scratch)
	got := map[string]bool{}
	for si, sh := range ix.shards {
		for _, idx := range buf.scratch[si].cands {
			got[sh.names.name(idx)] = true
		}
	}
	return got
}

func TestShardProbeCandidates(t *testing.T) {
	p := LSHParams{Bands: 2, RowsPerBand: 2}
	a := []uint64{1, 2, 3, 4}
	b := []uint64{1, 2, 9, 9} // shares band 0 with a
	c := []uint64{7, 7, 7, 7} // shares nothing
	// A heap and a directory store reach the same candidate set; three
	// stripes spread the records, one holds them together.
	for _, dir := range []bool{false, true} {
		for _, shards := range []int{1, 3} {
			ix, err := NewIndexWith("probe", 2, 4, p, shards)
			if err != nil {
				t.Fatal(err)
			}
			if dir {
				if err := ix.attachTier(t.TempDir(), 8); err != nil {
					t.Fatal(err)
				}
				defer ix.Close()
			}
			for name, sig := range map[string][]uint64{"a": a, "b": b, "c": c} {
				if ok, err := ix.Add(&Sketch{Name: name, K: 2, Shingles: 1, Signature: sig}); !ok || err != nil {
					t.Fatalf("add %q failed: %v", name, err)
				}
			}
			got := probeNames(ix, a)
			if !got["a"] {
				t.Errorf("dir=%v shards=%d: a must be a candidate of its own signature", dir, shards)
			}
			if !got["b"] {
				t.Errorf("dir=%v shards=%d: b shares band 0 with a and must be a candidate", dir, shards)
			}
			if got["c"] {
				t.Errorf("dir=%v shards=%d: c shares no band with a and must not be a candidate", dir, shards)
			}
		}
	}
}

// TestLSHMatchesExactOnSyntheticCorpus plants near-duplicates well
// above the banding threshold in a sea of random records and checks
// that LSH mode returns the identical top-K result list as exact mode.
func TestLSHMatchesExactOnSyntheticCorpus(t *testing.T) {
	ix, q := plantedCorpus(t, 1000, 30, 7)
	exact, err := search(ix, q, ModeExact, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	lsh, err := search(ix, q, ModeLSH, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) != 10 || len(lsh) != 10 {
		t.Fatalf("result lengths: exact=%d lsh=%d, want 10", len(exact), len(lsh))
	}
	for i := range exact {
		if exact[i] != lsh[i] {
			t.Fatalf("result %d differs: exact=%+v lsh=%+v", i, exact[i], lsh[i])
		}
	}
	// The planted neighbors sit far above the threshold; the top hit
	// must be one of them, not a random record.
	if !strings.HasPrefix(lsh[0].Ref, "near-") {
		t.Fatalf("top hit %q is not a planted near-duplicate", lsh[0].Ref)
	}
}

// TestLSHFallbackOnSparseIndex: when candidates cannot fill topK, LSH
// mode must fall back to the exact scan and return identical results.
func TestLSHFallbackOnSparseIndex(t *testing.T) {
	s := mustSketcher(t, DefaultK, DefaultSignatureSize)
	ix := NewIndex("sparse", DefaultK, DefaultSignatureSize)
	for i, text := range []string{
		"completely unrelated payload number one with its own words",
		"a second record that shares nothing with the query either!!",
		"third filler record, also dissimilar to everything nearby..",
	} {
		if _, err := ix.Add(s.Sketch(Record{Name: string(rune('a' + i)), Data: []byte(text)})); err != nil {
			t.Fatal(err)
		}
	}
	q := s.Sketch(Record{Name: "q", Data: []byte("query text matching none of the indexed records at all")})
	exact, err := search(ix, q, ModeExact, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	lsh, err := search(ix, q, ModeLSH, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) != len(lsh) {
		t.Fatalf("fallback mismatch: exact=%d results, lsh=%d", len(exact), len(lsh))
	}
	for i := range exact {
		if exact[i] != lsh[i] {
			t.Fatalf("result %d differs: exact=%+v lsh=%+v", i, exact[i], lsh[i])
		}
	}
}

// TestLSHFallbackCountsLiveCandidates: a tombstoned row keeps its
// postings until the next rebuild, so the probe can name as many rows as
// the index has live records while only a few of them are live. The
// fallback sweep must still run and fill topK exactly as exact mode does.
func TestLSHFallbackCountsLiveCandidates(t *testing.T) {
	eng, err := NewEngine(Options{IndexName: "tomb"})
	if err != nil {
		t.Fatal(err)
	}
	recs, base := plantedRecords(50, 30, 3) // 30 near-duplicates, 20 unrelated
	if oks, err := eng.AddBatch(recs); err != nil || countAdded(oks) != 50 {
		t.Fatalf("AddBatch added %d, %v; want 50, nil", countAdded(oks), err)
	}
	for i := 0; i < 25; i++ {
		if ok, err := eng.Delete(fmt.Sprintf("near-%d", i)); !ok || err != nil {
			t.Fatalf("delete near-%d: ok=%v err=%v", i, ok, err)
		}
	}
	q := eng.Sketcher().Sketch(Record{Name: "query", Data: base})
	exact, err := search(eng.Index(), q, ModeExact, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	lsh, err := search(eng.Index(), q, ModeLSH, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) != 10 || !slices.Equal(lsh, exact) {
		t.Fatalf("lsh returned %d results %+v; exact %d %+v", len(lsh), lsh, len(exact), exact)
	}
}

// TestBandKeyMaskContract pins what band keys promise now that they are
// wider than the prefilter. (i) Two signatures whose slots agree in
// their low byte share every band's key, so LSH recall is that of 8-bit
// keys. (ii) What keys cost does not grow as the prefilter narrows: on n
// unrelated random rows, the rows the probe alone names per query stay
// within a binomial tolerance of n·(1-(1-2^-8r)^b) ≈ n·b·2^-8r, the
// key-mask inflation term, at the default 32 x 4 banding and at 64 x 2,
// where it is largest. The rows are filed twice — by add into the delta,
// then sealed by a rebuild that reads keys back from the full store —
// and both tables must meet it.
func TestBandKeyMaskContract(t *testing.T) {
	const keyBits = 8
	rng := rand.New(rand.NewSource(5))
	randomSig := func() []uint64 {
		sig := make([]uint64, DefaultSignatureSize)
		for i := range sig {
			sig[i] = rng.Uint64()
		}
		return sig
	}
	for _, p := range []LSHParams{{Bands: 32, RowsPerBand: 4}, {Bands: 64, RowsPerBand: 2}} {
		for trial := 0; trial < 200; trial++ {
			a, b := randomSig(), randomSig()
			for i := range b {
				b[i] = a[i]&0xff | b[i]&^0xff
			}
			for band := 0; band < p.Bands; band++ {
				if p.bandKey(band, a) != p.bandKey(band, b) {
					t.Fatalf("%dx%d band %d: slots equal in their low byte got different keys", p.Bands, p.RowsPerBand, band)
				}
			}
		}
	}

	for _, c := range []struct {
		lsh        LSHParams
		n, queries int
	}{
		{LSHParams{Bands: 32, RowsPerBand: 4}, 20000, 40},
		{LSHParams{Bands: 64, RowsPerBand: 2}, 20000, 40},
	} {
		ix, err := NewIndexWith("inflation", DefaultK, DefaultSignatureSize, c.lsh, DefaultShards)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < c.n; i++ {
			if ok, err := ix.Add(&Sketch{Name: fmt.Sprintf("r%d", i), K: DefaultK, Shingles: 1, Signature: randomSig()}); !ok || err != nil {
				t.Fatalf("add: ok=%v err=%v", ok, err)
			}
		}
		queries := make([][]uint64, c.queries)
		for i := range queries {
			queries[i] = randomSig()
		}
		perRow := 1 - math.Pow(1-math.Pow(2, -keyBits*float64(c.lsh.RowsPerBand)), float64(c.lsh.Bands))
		mean := perRow * float64(c.n*c.queries)
		tol := 5*math.Sqrt(mean*(1-perRow)) + 1
		for _, level := range []string{"delta", "sealed"} {
			if level == "sealed" {
				ix.posts.rebuild(ix.posts.params, ix.shards)
			}
			buf := getSearchBuf()
			total := 0
			for _, sig := range queries {
				query := &Sketch{Name: "q", K: DefaultK, Shingles: 1, Signature: sig}
				q := buf.prepare(query, 0, len(ix.shards))
				buf.prepareBandKeys(ix, query)
				total += probeCandidates(ix.posts, ix.shards, q, buf.scratch)
			}
			putSearchBuf(buf)
			if math.Abs(float64(total)-mean) > tol {
				t.Fatalf("%dx%d %s: %d probe candidates over %d queries of %d unrelated rows, want %.0f ± %.0f",
					c.lsh.Bands, c.lsh.RowsPerBand, level, total, c.queries, c.n, mean, tol)
			}
			t.Logf("%dx%d %s: %.2f candidates a query from %d unrelated rows (expected %.2f)",
				c.lsh.Bands, c.lsh.RowsPerBand, level, float64(total)/float64(c.queries), c.n, mean/float64(c.queries))
		}
	}
}
