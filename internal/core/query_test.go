package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// modes lists every SearchMode, for tests that hold each one alike.
var modes = []SearchMode{ModeExact, ModeLSH}

// search is Index.Search under a background context.
func search(ix *Index, q *Sketch, mode SearchMode, topK int, minSim float64) ([]Result, error) {
	return ix.Search(context.Background(), q, Query{Mode: mode, TopK: topK, MinSim: minSim})
}

// buildTestIndex returns an index of n records where record i shares a
// progressively smaller prefix with the query payload, so similarity to
// the query strictly decreases with i.
func buildTestIndex(t *testing.T, n int) (*Index, *Sketch) {
	t.Helper()
	s := mustSketcher(t, 4, 128)
	base := []byte("abcdefghijklmnopqrstuvwxyz0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ")
	ix := NewIndex("test", 4, 128)
	for i := 0; i < n; i++ {
		// Replace a growing suffix with record-specific filler.
		data := append([]byte{}, base...)
		cut := len(base) - (i+1)*len(base)/(n+1)
		for j := cut; j < len(data); j++ {
			data[j] = byte('!' + (i+j)%90)
		}
		if _, err := ix.Add(s.Sketch(Record{Name: fmt.Sprintf("rec-%02d", i), Data: data})); err != nil {
			t.Fatal(err)
		}
	}
	return ix, s.Sketch(Record{Name: "query", Data: base})
}

func TestSearchTopKOrderingAndBounds(t *testing.T) {
	ix, q := buildTestIndex(t, 10)
	results, err := search(ix, q, ModeExact, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	for i := 1; i < len(results); i++ {
		if results[i].Similarity > results[i-1].Similarity {
			t.Fatalf("results out of order: %v", results)
		}
	}
	if results[0].Ref != "rec-00" {
		t.Fatalf("best match = %q, want rec-00", results[0].Ref)
	}
	// topK larger than the index returns everything.
	all, err := search(ix, q, ModeExact, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 10 {
		t.Fatalf("got %d results, want 10", len(all))
	}
	// minSim filters.
	strict, err := search(ix, q, ModeExact, 100, all[0].Similarity)
	if err != nil {
		t.Fatal(err)
	}
	if len(strict) < 1 || strict[len(strict)-1].Similarity < all[0].Similarity {
		t.Fatalf("minSim filter failed: %v", strict)
	}
	if len(strict) == len(all) {
		t.Fatal("minSim filter removed nothing")
	}
}

func TestSearchTopKSkipsSelf(t *testing.T) {
	s := mustSketcher(t, 4, 64)
	ix := NewIndex("self", 4, 64)
	data := []byte("identical payload for self and other records here")
	for _, name := range []string{"self", "other"} {
		if _, err := ix.Add(s.Sketch(Record{Name: name, Data: data})); err != nil {
			t.Fatal(err)
		}
	}
	results, err := search(ix, s.Sketch(Record{Name: "self", Data: data}), ModeExact, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Ref != "other" {
		t.Fatalf("results = %v, want single hit on \"other\"", results)
	}
	// A same-named record whose content differs from the query (e.g. the
	// file changed after indexing) is NOT a self-hit and must be reported.
	changed := s.Sketch(Record{Name: "self", Data: []byte("edited payload that no longer matches the indexed one")})
	results, err = search(ix, changed, ModeExact, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %v, want both records reported for changed same-named query", results)
	}
}

func TestSearchTopKValidation(t *testing.T) {
	ix, q := buildTestIndex(t, 3)
	if _, err := search(ix, q, ModeExact, 0, 0); err == nil {
		t.Fatal("topK=0: want error")
	}
	bad := mustSketcher(t, 9, 128).Sketch(Record{Name: "bad", Data: []byte("some query data")})
	if _, err := search(ix, bad, ModeExact, 3, 0); err == nil {
		t.Fatal("incompatible query: want error")
	}
}

func TestPairwiseDistances(t *testing.T) {
	s := mustSketcher(t, 4, 128)
	var sketches []*Sketch
	for i := 0; i < 5; i++ {
		data := []byte(fmt.Sprintf("shared prefix payload %c%c%c unique tail %d%d%d", 'a'+i, 'b'+i, 'c'+i, i, i*7, i*13))
		sketches = append(sketches, s.Sketch(Record{Name: fmt.Sprintf("s%d", i), Data: data}))
	}
	results, err := PairwiseDistances(sketches, NewPool(3))
	if err != nil {
		t.Fatal(err)
	}
	if want := 5 * 4 / 2; len(results) != want {
		t.Fatalf("got %d pairs, want %d", len(results), want)
	}
	seen := map[string]bool{}
	for i, r := range results {
		if r.Query == r.Ref {
			t.Fatalf("self pair in results: %v", r)
		}
		key := r.Query + "|" + r.Ref
		if seen[key] {
			t.Fatalf("duplicate pair %s", key)
		}
		seen[key] = true
		if i > 0 && r.Similarity > results[i-1].Similarity {
			t.Fatalf("results out of order at %d: %v", i, results)
		}
	}
	// Fewer than two sketches: no pairs, no error.
	for _, in := range [][]*Sketch{nil, sketches[:1]} {
		out, err := PairwiseDistances(in, nil)
		if err != nil || len(out) != 0 {
			t.Fatalf("degenerate input: got %v, %v", out, err)
		}
	}
	// Incompatible sketches error out.
	odd := mustSketcher(t, 9, 128).Sketch(Record{Name: "odd", Data: []byte("whatever data")})
	if _, err := PairwiseDistances(append(sketches[:2:2], odd), nil); err == nil {
		t.Fatal("incompatible sketches: want error")
	}
}

func TestPoolMap(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7} {
		p := NewPool(workers)
		if workers <= 0 {
			if p.Workers() != runtime.GOMAXPROCS(0) {
				t.Fatalf("Workers() = %d, want GOMAXPROCS", p.Workers())
			}
		} else if p.Workers() != workers {
			t.Fatalf("Workers() = %d, want %d", p.Workers(), workers)
		}
		const n = 100
		hits := make([]int32, n)
		p.Map(n, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: item %d executed %d times", workers, i, h)
			}
		}
		p.Map(0, func(int) { t.Fatal("fn called for n=0") })
	}
}

// TestExactSeededFloorKeepsTies pins the seeded floor as inclusive. K
// candidates share whole bands with the query and match it in 96 of 128
// slots; as many rows again match it in 96 slots too, three of every
// band of four, so no band key names them and only the sweep can find
// them; their names sort first, so they win the ties. The candidates
// fill K and seed the sweep's floor at 96 matched slots: a floor that
// dropped rows tied with the K-th best would answer with the candidates.
// Exact answers must equal the brute-force top K, on every kernel and
// both stores.
func TestExactSeededFloorKeepsTies(t *testing.T) {
	const slots, rowsPerBand, topK = DefaultSignatureSize, 4, 5
	rng := rand.New(rand.NewSource(29))
	random := func() []uint64 {
		sig := make([]uint64, slots)
		for i := range sig {
			sig[i] = rng.Uint64()
		}
		return sig
	}
	// differ changes slot s in its low nibble, and so in its band key.
	differ := func(sig []uint64, s int) { sig[s] ^= 0x11 }
	query := &Sketch{Name: "query", K: DefaultK, Shingles: 50, Signature: random()}
	var sketches []*Sketch
	add := func(name string, sig []uint64) {
		sketches = append(sketches, &Sketch{Name: name, K: DefaultK, Shingles: 50, Signature: sig})
	}
	for i := 0; i < topK; i++ {
		sig := slices.Clone(query.Signature)
		for b := 0; b < 8; b++ { // 8 of the 32 bands differ in every slot
			band := (i*5 + b) % (slots / rowsPerBand)
			for s := band * rowsPerBand; s < (band+1)*rowsPerBand; s++ {
				differ(sig, s)
			}
		}
		add(fmt.Sprintf("z-cand-%d", i), sig)
	}
	for i := 0; i < topK; i++ {
		sig := slices.Clone(query.Signature)
		for s := (i + rowsPerBand - 1) % rowsPerBand; s < slots; s += rowsPerBand {
			differ(sig, s)
		}
		add(fmt.Sprintf("a-tie-%d", i), sig)
	}
	for i := 0; i < 600; i++ {
		add(fmt.Sprintf("m-rand-%d", i), random())
	}
	want := bruteTopK(query, sketches, topK, 0)
	for i, r := range want {
		if r.Ref != fmt.Sprintf("a-tie-%d", i) || r.Similarity != 0.75 {
			t.Fatalf("corpus: brute-force rank %d is %+v, want a-tie-%d at 0.75", i, r, i)
		}
	}
	eachKernel(t, func(t *testing.T) {
		for _, dir := range []bool{false, true} {
			eng := engineAt(t, "ties", dir)
			if _, err := eng.AddSketches(sketches); err != nil {
				t.Fatal(err)
			}
			ix := eng.Index()
			buf := getSearchBuf()
			q := buf.prepare(query, 0, len(ix.shards))
			buf.prepareBandKeys(ix, query)
			probed := probeCandidates(ix.posts, ix.shards, q, buf.scratch)
			putSearchBuf(buf)
			if probed != topK {
				t.Fatalf("dir=%v: the probe found %d rows, want the %d candidates only", dir, probed, topK)
			}
			for _, minSim := range []float64{0, 0.5, 0.75} {
				got, err := search(ix, query, ModeExact, topK, minSim)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("dir=%v minSim=%v: exact search\n got %v\nwant %v", dir, minSim, got, want)
				}
			}
		}
	})
}

// TestSearchAllocs pins what a steady-state search allocates over a
// 9 000-row directory index: nothing for an exact miss, a name only for
// a row that enters the top-K heap — so an LSH short answer at minSim 0,
// which rescores every row, stays far under one allocation a row — and
// little more than K plus the returned slice for a planted hit.
func TestSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items, so counts vary")
	}
	const n, topK = 9000, 10
	eng := engineAt(t, "allocs", true)
	recs, base := plantedRecords(n, 20, 3)
	if oks, err := eng.AddBatch(recs); err != nil || countAdded(oks) != n {
		t.Fatalf("AddBatch added %d, %v; want %d, nil", countAdded(oks), err, n)
	}
	ix, s := eng.Index(), eng.Sketcher()
	hit := s.Sketch(Record{Name: "query", Data: base})
	miss := s.Sketch(Record{Name: "query", Data: benchData(256, 99999)})
	for _, c := range []struct {
		name      string
		q         *Sketch
		mode      SearchMode
		minSim    float64
		results   int     // how many results the search must return
		maxAllocs float64 // the bound on its allocations
	}{
		{"exact-miss", miss, ModeExact, 0.3, 0, 0},
		{"lsh-short", miss, ModeLSH, 0, topK, 0.05 * n},
		{"planted-hit", hit, ModeExact, 0.3, topK, topK + 10},
	} {
		var err error
		var res []Result
		allocs := testing.AllocsPerRun(20, func() { res, err = search(ix, c.q, c.mode, topK, c.minSim) })
		if err != nil || len(res) != c.results {
			t.Fatalf("%s: %d results, %v; want %d, nil", c.name, len(res), err, c.results)
		}
		t.Logf("%s: %v allocs a search", c.name, allocs)
		if allocs > c.maxAllocs {
			t.Errorf("%s: %v allocs a search, want at most %v", c.name, allocs, c.maxAllocs)
		}
	}
}
