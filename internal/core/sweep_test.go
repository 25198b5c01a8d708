package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
)

// sweepCorpus is one random single-shard index for the sweep property
// test, with the query to run against it.
type sweepCorpus struct {
	ix    *Index
	sh    *shard
	query *Sketch
	rows  []*Sketch // every row's sketch in row order, nil once deleted
	rng   *rand.Rand
	next  int // name counter for rows added later
}

// randomSig draws a signature over a four-value alphabet in the low
// byte (so a fair share of lanes collide with any other signature's)
// under random high bits (so the full-width rescore disagrees with the
// packed prefilter, as truncated minhashes do).
func randomSig(rng *rand.Rand, slots int) []uint64 {
	sig := make([]uint64, slots)
	for i := range sig {
		sig[i] = uint64(rng.Intn(4)) | uint64(rng.Intn(2))<<40
	}
	return sig
}

func (c *sweepCorpus) add(t *testing.T, name string, shingles int, sig []uint64) {
	t.Helper()
	s := &Sketch{Name: name, K: c.ix.meta.K, Shingles: shingles, Signature: sig}
	ok, err := c.ix.Add(s)
	if err != nil || !ok {
		t.Fatalf("add %q: ok=%v err=%v", name, ok, err)
	}
	c.rows = append(c.rows, s)
}

// addRandom appends n rows: mostly random, every fifth a near-duplicate
// of the query (a few lanes changed), every seventh with zero shingles.
func (c *sweepCorpus) addRandom(t *testing.T, n int) {
	t.Helper()
	slots := len(c.query.Signature)
	for i := 0; i < n; i++ {
		sig := randomSig(c.rng, slots)
		if c.next%5 == 0 {
			copy(sig, c.query.Signature)
			for j := c.rng.Intn(1 + slots/4); j > 0; j-- {
				sig[c.rng.Intn(slots)] ^= 1
			}
		}
		shingles := 9
		if c.next%7 == 0 {
			shingles = 0
		}
		c.add(t, fmt.Sprintf("row-%d", c.next), shingles, sig)
		c.next++
	}
}

// newSweepCorpus builds a one-shard index of `rows` random rows of
// `slots` slots — in memory, or directory-backed when dir is set —
// holding a row that is the query itself (same name, same signature),
// with every ninth row tombstoned.
func newSweepCorpus(t *testing.T, slots, rows int, dir bool, seed int64) *sweepCorpus {
	t.Helper()
	lsh := LSHParams{Bands: 1, RowsPerBand: slots}
	if slots%4 == 0 {
		lsh = LSHParams{Bands: slots / 4, RowsPerBand: 4}
	}
	ix, err := NewIndexWith("sweep", 8, slots, lsh, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dir {
		if err := ix.attachTier(t.TempDir(), 64); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ix.Close() })
	}
	rng := rand.New(rand.NewSource(seed))
	c := &sweepCorpus{ix: ix, sh: ix.shards[0], rng: rng,
		query: &Sketch{Name: "self", K: 8, Shingles: 9, Signature: randomSig(rng, slots)}}
	c.addRandom(t, rows/2)
	c.add(t, "self", 9, c.query.Signature)
	c.addRandom(t, rows-rows/2-1)
	for i := 0; i < rows; i += 9 {
		if name := c.sh.names[i]; name != "self" {
			if ok, err := ix.Delete(name); err != nil || !ok {
				t.Fatalf("delete %q: ok=%v err=%v", name, ok, err)
			}
			c.rows[i] = nil
		}
	}
	return c
}

// perRowReference is what the sweep must reproduce: prefilterRow called
// on every row in index order, skipping the rows set in probed, then
// tieredRescore. It also returns what the pass feeds the
// scanned/survived counters, and the brute-force top-K over the same
// rows' sketches, which the rescored results must equal.
func (c *sweepCorpus) perRowReference(query *Sketch, q *packedQuery, topK int, probed []uint64) ([]Result, []scoredCand, tierCounts, []Result) {
	sh := c.sh
	var sc shardScratch
	var refs []*Sketch
	scanned := 0
	for i := range sh.names {
		idx := int32(i)
		if bitSet(probed, idx) {
			continue
		}
		scanned++
		sh.prefilterRow(q, idx, &sc)
		if c.rows[i] != nil {
			refs = append(refs, c.rows[i])
		}
	}
	fed := tierCounts{uint64(scanned), uint64(len(sc.scored))}
	dst := sh.tieredRescore(nil, q, topK, &sc, scanned)
	return dst, sc.scored, fed, bruteTopK(query, refs, topK, q.minSim)
}

// TestSweepMatchesPerRowPath is the sweep's correctness property: over
// random shards — slot counts with and without padding lanes, heap and
// directory stores, tombstones, zero-shingle rows and queries, a
// self-hit row, with and without the LSH probe's bitset, rows appended
// after the probe — the blocked sweep emits exactly the rows, in exactly
// the order, with exactly the matched counts and similarities that the
// per-row comparator does, feeds the tier counters the same numbers, and
// answers what a brute-force scan of the sketches does. It runs on every
// kernel the build offers.
func TestSweepMatchesPerRowPath(t *testing.T) {
	// 70 000 one-byte lanes overflow a uint16 count: the sweep must
	// fall back to the per-row comparator instead of truncating.
	geoms := []int{1, 100, 127, 128, 70000}
	eachKernel(t, func(t *testing.T) {
		for gi, slots := range geoms {
			for _, dir := range []bool{false, true} {
				rows := 2*sweepBlock + 77 // two full blocks and a short one
				if slots > 1000 {
					rows = 12
				}
				c := newSweepCorpus(t, slots, rows, dir, int64(gi+1))
				name := fmt.Sprintf("slots=%d/dir=%v", slots, dir)
				q25 := float64(slots/4) / float64(slots)
				for _, minSim := range []float64{
					0, -0.1, 0.2, q25, math.Nextafter(q25, 1), math.Nextafter(q25, 0), 0.8, 1, 1.1,
				} {
					for _, zeroQuery := range []bool{false, true} {
						c.checkSweep(t, name, minSim, zeroQuery)
					}
				}
			}
		}
	})
}

// checkSweep compares the three sweep entry points against the per-row
// reference for one query: the exact scan, the LSH complement scan
// (after a probe, with rows appended behind the probe's bitset), and
// the stale-generation fallback of scoreCandidates.
func (c *sweepCorpus) checkSweep(t *testing.T, name string, minSim float64, zeroQuery bool) {
	t.Helper()
	query := *c.query
	if zeroQuery {
		query.Name, query.Shingles = "empty", 0
	}
	name = fmt.Sprintf("%s/minSim=%v/zeroQuery=%v", name, minSim, zeroQuery)
	buf := getSearchBuf()
	defer putSearchBuf(buf)
	q := buf.prepare(&query, minSim, 1)
	buf.prepareBandKeys(c.ix, &query)
	sh, sc := c.sh, &buf.scratch[0]
	const topK = 7

	// run performs one sweep entry point and checks it against the
	// per-row reference over the rows not set in probed: results,
	// prefilter survivors, what the tier counters were fed, and the
	// brute-force answer.
	run := func(what string, probed []uint64, sweep func() []Result) {
		t.Helper()
		before := readTierCounts(sh.full.tier)
		got := sweep()
		gotScored := slices.Clone(sc.scored)
		after := readTierCounts(sh.full.tier)
		fed := tierCounts{after.scanned - before.scanned, after.survived - before.survived}
		want, wantScored, wantFed, brute := c.perRowReference(&query, q, topK, probed)
		if !slices.Equal(got, want) {
			t.Fatalf("%s %s: sweep results differ from the per-row path\n got %v\nwant %v", name, what, got, want)
		}
		if top := MergeTopK(slices.Clone(got), topK); !slices.Equal(top, brute) {
			t.Fatalf("%s %s: sweep top-K differs from brute force\n got %v\nwant %v", name, what, top, brute)
		}
		if !slices.Equal(gotScored, wantScored) {
			t.Fatalf("%s %s: prefilter survivors differ\n got %v\nwant %v", name, what, gotScored, wantScored)
		}
		if fed != wantFed {
			t.Fatalf("%s %s: sweep fed the tier counters %+v, per-row path %+v", name, what, fed, wantFed)
		}
	}

	// Exact: a snapshot with no band keys marks nothing, so the
	// complement is every row.
	sh.beginProbe(sc)
	run("scan", nil, func() []Result { return sh.scanRestAppend(nil, q, topK, sc) })

	// LSH complement: probe, let rows land behind the bitset, then
	// sweep what the probe did not mark.
	probeCandidates(c.ix.posts, c.ix.shards, q, buf.scratch)
	c.addRandom(t, 3)
	run("rest", slices.Clone(sc.candSet), func() []Result { return sh.scanRestAppend(nil, q, topK, sc) })

	// Stale generation: candidates captured before a compaction are
	// dropped and the candidate pass sweeps every row, once.
	probeCandidates(c.ix.posts, c.ix.shards, q, buf.scratch)
	sc.gen--
	run("stale", nil, func() []Result { return sh.scoreCandidates(nil, q, topK, sc) })
	if !sc.fullScanned {
		t.Fatalf("%s: stale-generation fallback did not record its full scan", name)
	}
	if rest := sh.scanRestAppend(nil, q, topK, sc); len(rest) != 0 {
		t.Fatalf("%s: complement pass after a full fallback scan returned %d rows", name, len(rest))
	}
}

type tierCounts struct{ scanned, survived uint64 }

func readTierCounts(t *tierState) tierCounts {
	return tierCounts{t.scanned.Load(), t.survived.Load()}
}

// TestSearchIdenticalAcrossKernels runs whole searches — exact and LSH,
// heap and directory stores, hit and miss queries, inline and fanned out,
// signatures with and without padding nibbles — once per kernel and
// requires identical results: compiling the assembly out changes
// nothing a caller can see.
func TestSearchIdenticalAcrossKernels(t *testing.T) {
	// A 128-slot row is 64 bytes: enough rows to fan out.
	tiered, plain := tieredEngines(t, parallelScoreMinBytes/64+300, 64)
	engines := []*Engine{tiered, plain}
	// 100 slots are 7 words (the portable shape) with 12 padding nibbles,
	// 127 slots 8 words (a vector shape) with one.
	for _, slots := range []int{100, 127} {
		eng, err := NewEngine(Options{IndexName: "pad", SignatureSize: slots, Tiered: true, DataDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Index().Close() })
		for i := 0; i < 600; i++ {
			if _, err := addRecord(eng, Record{Name: fmt.Sprintf("rec-%d", i), Data: benchData(256, int64(i+1))}); err != nil {
				t.Fatal(err)
			}
		}
		engines = append(engines, eng)
	}
	results := map[string][][]Result{}
	eachKernel(t, func(t *testing.T) {
		var all [][]Result
		for _, eng := range engines {
			s := eng.Sketcher()
			for _, q := range []*Sketch{
				s.Sketch(Record{Name: "q-near", Data: benchData(256, 1)}),
				s.Sketch(Record{Name: "q-far", Data: benchData(256, 99999)}),
				s.Sketch(Record{Name: "q-empty", Data: []byte("tiny")}),
				eng.Index().Get("rec-7"),
			} {
				for _, minSim := range []float64{0, 0.05, 0.5} {
					for _, pool := range []*Pool{NewPool(1), NewPool(4)} {
						for _, mode := range modes {
							got, err := search(eng.Index(), q, mode, 10, minSim, pool)
							if err != nil {
								t.Fatal(err)
							}
							all = append(all, got)
						}
					}
				}
			}
		}
		results[t.Name()] = all
	})
	var first [][]Result
	for name, all := range results {
		if first == nil {
			first = all
			continue
		}
		for i := range all {
			if !slices.Equal(all[i], first[i]) {
				t.Fatalf("search %d differs between kernels (%s):\n%v\n%v", i, name, all[i], first[i])
			}
		}
	}
}

// TestMinMatchedMatchesFloatPredicate pins the integer threshold to the
// float rule it replaces: for every matched count m, "m >= minMatched"
// decides exactly what "m/slots >= minSim" decides — at the floors that
// sit on, or one ulp either side of, every representable m/slots.
func TestMinMatchedMatchesFloatPredicate(t *testing.T) {
	for _, slots := range []int{1, 3, 100, 128, 200} {
		floors := []float64{0, 1, -0.1, 1.1, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
		for m := 0; m <= slots; m++ {
			x := float64(m) / float64(slots)
			floors = append(floors, x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1)))
		}
		for _, minSim := range floors {
			mm := minMatchedFor(minSim, slots)
			if mm < 0 || mm > slots+1 {
				t.Fatalf("minMatchedFor(%v, %d) = %d, outside [0, slots+1]", minSim, slots, mm)
			}
			for m := 0; m <= slots; m++ {
				if want := float64(m)/float64(slots) >= minSim; (m >= mm) != want {
					t.Fatalf("slots=%d minSim=%v: m=%d kept=%v by minMatched=%d, float rule says %v",
						slots, minSim, m, m >= mm, mm, want)
				}
			}
		}
	}
}

// countdownCtx reports cancellation from its n-th Err call on, which
// lets a test cancel a search at an exact poll instead of racing it.
type countdownCtx struct {
	context.Context
	done  chan struct{}
	polls atomic.Int32
	after int32
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

func (c *countdownCtx) Err() error {
	if c.polls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestSweepCancellation cancels a search in the middle of a sweep: the
// search must return the context's error and no results, although rows
// swept before the cancellation had already qualified. The query shares
// no lane with any row, so LSH finds no candidates and both modes are
// one sweep of eight blocks at similarity 0, polled once per block
// after the search's own up-front check.
func TestSweepCancellation(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		for _, dir := range []bool{false, true} {
			c := newSweepCorpus(t, 128, 8*sweepBlock, dir, 3)
			// Every slot's low nibble is 4 or more, and every row's below 4.
			miss := &Sketch{Name: "miss", K: 8, Shingles: 9, Signature: make([]uint64, 128)}
			for i := range miss.Signature {
				miss.Signature[i] = uint64(100 + i%12)
			}
			for _, mode := range modes {
				q := Query{Mode: mode, TopK: 10}
				free := &countdownCtx{Context: context.Background(), done: make(chan struct{}), after: math.MaxInt32}
				res, err := c.ix.Search(free, miss, q, NewPool(1))
				if err != nil || len(res) != 10 {
					t.Fatalf("%s dir=%v: uncancelled search = %d results, %v", mode, dir, len(res), err)
				}
				if polls := free.polls.Load(); polls < 9 {
					t.Fatalf("%s dir=%v: a sweep of 8 blocks polled %d times, want at least 9", mode, dir, polls)
				}
				before := readTierCounts(c.sh.full.tier)
				// Polls 1-5 pass (the up-front check and four blocks); the
				// fifth block's poll fires.
				ctx := &countdownCtx{Context: context.Background(), done: make(chan struct{}), after: 5}
				res, err = c.ix.Search(ctx, miss, q, NewPool(1))
				if !errors.Is(err, context.Canceled) || res != nil {
					t.Fatalf("%s dir=%v: cancelled mid-sweep = %d results, err %v; want none, context.Canceled", mode, dir, len(res), err)
				}
				if readTierCounts(c.sh.full.tier) != before {
					t.Fatalf("%s: a sweep cancelled half way still went on to rescore", mode)
				}
			}
		}
	})
}

// TestComplementSweepsAcrossCompaction runs a search's two passes by
// hand with a SaveDir between them, as a snapshot racing a search can:
// the probe finds no candidate in the stripe, the snapshot compacts it
// (renumbering its rows), and the complement pass must still sweep it —
// an empty bitset marks nothing under any numbering. Every row shares
// one slot a band with the query at most, so no band key matches, and
// exact mode (no keys at all) takes the same path.
func TestComplementSweepsAcrossCompaction(t *testing.T) {
	const slots, rows, topK = 64, 40, 5
	for _, mode := range modes {
		ix, err := NewIndexWith("race", 8, slots, LSHParams{Bands: slots / 4, RowsPerBand: 4}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.attachTier(t.TempDir(), 0); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		randSig := func() []uint64 {
			sig := make([]uint64, slots)
			for i := range sig {
				sig[i] = rng.Uint64()
			}
			return sig
		}
		q := &Sketch{Name: "q", K: 8, Shingles: 9, Signature: randSig()}
		var live []*Sketch
		for i := 0; i < rows; i++ {
			sk := &Sketch{Name: fmt.Sprintf("row-%02d", i), K: 8, Shingles: 9, Signature: randSig()}
			for j := 0; j < i%16; j++ {
				sk.Signature[4*j] = q.Signature[4*j] // the first slot of band j
			}
			if _, err := ix.Add(sk); err != nil {
				t.Fatal(err)
			}
			live = append(live, sk)
		}
		for i := 0; i < rows; i += 2 {
			if ok, err := ix.Delete(live[i].Name); !ok || err != nil {
				t.Fatalf("delete %s: %v, %v", live[i].Name, ok, err)
			}
			live[i] = nil
		}
		live = slices.DeleteFunc(live, func(sk *Sketch) bool { return sk == nil })

		buf := getSearchBuf()
		shards := ix.snapshotShards()
		pq := buf.prepare(q, 0, len(shards))
		if mode == ModeLSH {
			buf.prepareBandKeys(ix, q)
		}
		if n := probeCandidates(ix.posts, shards, pq, buf.scratch); n != 0 {
			t.Fatalf("%s: probe found %d candidates, want none", mode, n)
		}
		if err := ix.SaveDir(); err != nil {
			t.Fatal(err)
		}
		if ix.compactions.Load() != 1 {
			t.Fatalf("%s: SaveDir ran %d compactions, want 1", mode, ix.compactions.Load())
		}
		got := MergeTopK(runScan(buf, shards, pq, topK, nil, ix.Len(), (*shard).scanRestAppend), topK)
		putSearchBuf(buf)
		if want := bruteTopK(q, live, topK, 0); !slices.Equal(got, want) {
			t.Fatalf("%s: complement after a compaction = %v, want %v", mode, got, want)
		}
		ix.Close()
	}
}

// TestSearchRejectsNaNFloor pins the one floor no threshold can stand
// for: NaN compares false both ways, so the float paths would disagree
// with each other about it; the search refuses it instead.
func TestSearchRejectsNaNFloor(t *testing.T) {
	ix, q := buildTestIndex(t, 3)
	if _, err := search(ix, q, ModeExact, 1, math.NaN(), nil); err == nil {
		t.Error("an exact search accepted a NaN minimum similarity")
	}
	if _, err := search(ix, q, ModeLSH, 1, math.NaN(), nil); err == nil {
		t.Error("an LSH search accepted a NaN minimum similarity")
	}
}
