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
	"time"
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
		if name := c.sh.names.name(int32(i)); name != "self" {
			if ok, err := ix.Delete(name); err != nil || !ok {
				t.Fatalf("delete %q: ok=%v err=%v", name, ok, err)
			}
			c.rows[i] = nil
		}
	}
	return c
}

// perRowReference is what a pass over the rows `in` selects must
// reproduce, with the prefilter's cut written out as the float predicate
// its integer floor stands for: in index order, a live row is kept when
// float64(m)/slots >= minSim, m its slots whose low nibble equals the
// query's, counted slot by slot, and 0 for a zero-shingle row or query. The survivors are then rescored. It also returns
// what the pass feeds the scanned/survived counters, and the brute-force
// top-K over the same rows' sketches, which the rescored results must
// equal.
func (c *sweepCorpus) perRowReference(query *Sketch, q *packedQuery, minSim float64, topK int, in func(idx int32) bool) ([]Result, []scoredCand, tierCounts, []Result) {
	sh := c.sh
	slots := len(query.Signature)
	var sc shardScratch
	var refs []*Sketch
	scanned := 0
	for i, row := range c.rows {
		idx := int32(i)
		if !in(idx) {
			continue
		}
		scanned++
		if row == nil { // tombstoned
			continue
		}
		refs = append(refs, row)
		m := 0
		if query.Shingles != 0 && row.Shingles != 0 {
			for s, v := range query.Signature {
				if v&laneMask == row.Signature[s]&laneMask {
					m++
				}
			}
		}
		if float64(m)/float64(slots) >= minSim {
			sc.scored = append(sc.scored, scoredCand{idx: idx, matched: int32(m)})
		}
	}
	fed := tierCounts{uint64(scanned), uint64(len(sc.scored))}
	dst := sh.rescore(nil, q, topK, &sc, scanned)
	return dst, sc.scored, fed, bruteTopK(query, refs, topK, minSim)
}

// TestSweepMatchesPerRowPath is the correctness property of both search
// passes: over random shards — slot counts with and without padding
// bits, heap and directory stores, tombstones, zero-shingle rows and
// queries, a self-hit row, with and without the LSH probe's bitset, rows
// appended after the probe — the blocked sweep and the candidate pass
// emit exactly the rows, in exactly the order, with exactly the matched
// counts and similarities that the per-row float reference does, feed
// the tier counters the same numbers, and answer what a brute-force scan
// of the sketches does. It runs on every kernel the build offers.
func TestSweepMatchesPerRowPath(t *testing.T) {
	// 70 000 slots are 1 094 words a plane: a count past any byte or
	// uint16 accumulator, and a chunk of 8.6 MB.
	geoms := []int{1, 100, 127, 128, 70000}
	eachKernel(t, func(t *testing.T) {
		for gi, slots := range geoms {
			for _, dir := range []bool{false, true} {
				rows := 2*sweepBlock + 77 // two full chunks and a short one
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

// checkSweep compares the passes against the per-row reference for one
// query, three times: the sweep as the exact scan; then, after a probe
// and with rows appended behind its bitset, the candidate pass over the
// rows the probe marked and the sweep as the LSH complement scan over
// the rest.
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

	// run performs one pass and checks it against the per-row reference
	// over the rows `in` selects: results, prefilter survivors, what the
	// tier counters were fed, and the brute-force answer.
	run := func(what string, in func(idx int32) bool, sweep func() []Result) {
		t.Helper()
		before := readTierCounts(sh.full.tier)
		got := sweep()
		gotScored := slices.Clone(sc.scored)
		after := readTierCounts(sh.full.tier)
		fed := tierCounts{after.scanned - before.scanned, after.survived - before.survived}
		want, wantScored, wantFed, brute := c.perRowReference(&query, q, minSim, topK, in)
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
	run("scan", func(int32) bool { return true }, func() []Result { return sh.sweep(nil, q, topK, sc) })

	// LSH: probe, let rows land behind the bitset, then score the
	// candidates the probe marked and sweep what it did not. The row
	// that is the query shares every band with it, so there is always a
	// candidate.
	if probeCandidates(c.ix.posts, c.ix.shards, q, buf.scratch) == 0 {
		t.Fatalf("%s: the probe found no candidates", name)
	}
	c.addRandom(t, 3)
	probed := sc.candSet
	run("candidates", func(idx int32) bool { return bitSet(probed, idx) },
		func() []Result { return sh.scoreCandidates(nil, q, topK, sc) })
	run("rest", func(idx int32) bool { return !bitSet(probed, idx) },
		func() []Result { return sh.sweep(nil, q, topK, sc) })
}

type tierCounts struct{ scanned, survived uint64 }

func readTierCounts(t *tierState) tierCounts {
	return tierCounts{t.scanned.Load(), t.survived.Load()}
}

// TestSearchIdenticalAcrossKernels runs whole searches — exact and LSH,
// heap and directory stores, hit and miss queries, sweeps over several
// arena chunks a stripe, signatures with and without padding nibbles —
// once per kernel and requires identical results: compiling the
// assembly out changes nothing a caller can see.
func TestSearchIdenticalAcrossKernels(t *testing.T) {
	// 8 492 rows: over 500 rows a stripe, so every sweep crosses arena
	// chunks.
	tiered, plain := tieredEngines(t, 8492, 64)
	engines := []*Engine{tiered, plain}
	// 100 slots are 2 words a plane with 28 padding bits, 127 slots 2
	// with one.
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
					for _, mode := range modes {
						got, err := search(eng.Index(), q, mode, 10, minSim)
						if err != nil {
							t.Fatal(err)
						}
						all = append(all, got)
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
				res, err := c.ix.Search(free, miss, q)
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
				res, err = c.ix.Search(ctx, miss, q)
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

// TestSearchDuringCompaction races searches against snapshots that
// compact the stripe every round, renumbering its rows. Of 40 rows
// sharing 1–8 slots with the query, 3 share a whole band, so an LSH
// search finds 3 candidates and must sweep the complement for the other
// 17 of its 20; an exact search has no candidates and sweeps everything.
// A writer meanwhile adds 20 junk rows, deletes them and calls SaveDir,
// so every round compacts. Every answer must equal the brute-force one:
// a compaction landing between the candidate pass and the complement
// pass would otherwise cost the search that stripe's complement.
func TestSearchDuringCompaction(t *testing.T) {
	const slots, rows, topK, minSim = 64, 40, 20, 0.01
	const maxCompactions = 300
	ix, err := NewIndexWith("race", 8, slots, LSHParams{Bands: slots / 4, RowsPerBand: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.attachTier(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	rng := rand.New(rand.NewSource(1))
	randSig := func(rng *rand.Rand) []uint64 {
		sig := make([]uint64, slots)
		for i := range sig {
			sig[i] = rng.Uint64()
		}
		return sig
	}
	q := &Sketch{Name: "q", K: 8, Shingles: 9, Signature: randSig(rng)}
	var live []*Sketch
	for i := range rows {
		sk := &Sketch{Name: fmt.Sprintf("row-%02d", i), K: 8, Shingles: 9, Signature: randSig(rng)}
		for j := range i%8 + 1 {
			sk.Signature[4*j] = q.Signature[4*j] // the first slot of band j
		}
		if i < 3 {
			copy(sk.Signature[slots-4:], q.Signature[slots-4:]) // the whole last band
		}
		if _, err := ix.Add(sk); err != nil {
			t.Fatal(err)
		}
		live = append(live, sk)
	}
	want := bruteTopK(q, live, topK, minSim)
	if len(want) != topK {
		t.Fatalf("brute force found %d rows above the floor, want %d", len(want), topK)
	}
	buf := getSearchBuf()
	pq := buf.prepare(q, minSim, 1)
	buf.prepareBandKeys(ix, q)
	if n := probeCandidates(ix.posts, ix.shards, pq, buf.scratch); n != 3 {
		t.Fatalf("probe found %d candidates, want the 3 rows sharing a band", n)
	}
	putSearchBuf(buf)

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(2))
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			names := make([]string, 20)
			for i := range names {
				names[i] = fmt.Sprintf("junk-%d-%d", round, i)
				if _, err := ix.Add(&Sketch{Name: names[i], K: 8, Shingles: 9, Signature: randSig(rng)}); err != nil {
					t.Error(err)
					return
				}
			}
			for _, name := range names {
				if ok, err := ix.Delete(name); !ok || err != nil {
					t.Errorf("delete %s: %v, %v", name, ok, err)
					return
				}
			}
			if err := ix.SaveDir(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() { close(stop); <-done }()

	deadline := time.Now().Add(2 * time.Second)
	searches := 0
	for ix.compactions.Load() < maxCompactions && time.Now().Before(deadline) && !t.Failed() {
		for _, mode := range modes {
			searches++
			got, err := search(ix, q, mode, topK, minSim)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s search %d, after %d compactions: %d results, want %d\n got %v\nwant %v",
					mode, searches, ix.compactions.Load(), len(got), len(want), got, want)
			}
		}
	}
	n := ix.compactions.Load()
	if n == 0 {
		t.Fatalf("%d searches ran beside no compaction", searches)
	}
	t.Logf("%d searches beside %d compactions", searches, n)
}

// TestSearchRejectsNaNFloor pins the one floor no threshold can stand
// for: NaN compares false both ways, so the float paths would disagree
// with each other about it; the search refuses it instead.
func TestSearchRejectsNaNFloor(t *testing.T) {
	ix, q := buildTestIndex(t, 3)
	if _, err := search(ix, q, ModeExact, 1, math.NaN()); err == nil {
		t.Error("an exact search accepted a NaN minimum similarity")
	}
	if _, err := search(ix, q, ModeLSH, 1, math.NaN()); err == nil {
		t.Error("an LSH search accepted a NaN minimum similarity")
	}
}
