package core

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// refPostings is the structure postingTable replaced, kept as the
// reference: per shard and per band, a map from bucket key to the
// shard-local rows filed there.
type refPostings struct {
	params LSHParams
	shards [][]map[uint64][]int32
}

func newRefPostings(p LSHParams, shards int) *refPostings {
	r := &refPostings{params: p, shards: make([][]map[uint64][]int32, shards)}
	for si := range r.shards {
		r.shards[si] = make([]map[uint64][]int32, p.Bands)
		for b := range r.shards[si] {
			r.shards[si][b] = map[uint64][]int32{}
		}
	}
	return r
}

func (r *refPostings) add(shard int, row int32, sig []uint64, mask uint64) {
	for band, buckets := range r.shards[shard] {
		key := r.params.bandKey(band, sig, mask)
		buckets[key] = append(buckets[key], row)
	}
}

// refFromLive is what the old code did on Rebucket and on compaction:
// new maps from every live row.
func refFromLive(ix *Index) *refPostings {
	r := newRefPostings(ix.lsh, len(ix.shards))
	for si, sh := range ix.shards {
		for i := range sh.names {
			if !sh.rowDead(int32(i)) {
				r.add(si, int32(i), sh.arena.appendUnpacked(nil, i), sh.mask)
			}
		}
	}
	return r
}

// candidates returns shard's live candidate rows for sig, ascending.
func (r *refPostings) candidates(sh *shard, shard int, sig []uint64) []int32 {
	var out []int32
	for band, buckets := range r.shards[shard] {
		for _, row := range buckets[r.params.bandKey(band, sig, sh.mask)] {
			if !sh.rowDead(row) && !slices.Contains(out, row) {
				out = append(out, row)
			}
		}
	}
	slices.Sort(out)
	return out
}

// postingModel drives one index and the reference side by side.
type postingModel struct {
	t     *testing.T
	name  string
	ix    *Index
	ref   *refPostings
	rng   *rand.Rand
	slots int
	live  []string
	sigs  [][]uint64 // every signature ever added: the query pool
	next  int
}

// sig draws a signature over a tiny alphabet, so buckets are shared and
// chains get long, with noise above bit 8 that an 8-bit index must mask.
func (m *postingModel) sig() []uint64 {
	sig := make([]uint64, m.slots)
	for i := range sig {
		sig[i] = uint64(m.rng.Intn(3)) | uint64(m.rng.Intn(2))<<20
	}
	return sig
}

func (m *postingModel) add(sig []uint64) {
	name := fmt.Sprintf("r%d", m.next)
	m.next++
	if ok, err := m.ix.Add(&Sketch{Name: name, K: m.ix.meta.K, Shingles: 5, Signature: sig}); !ok || err != nil {
		m.t.Fatalf("%s: add %s: ok=%v err=%v", m.name, name, ok, err)
	}
	si := shardFor(name, len(m.ix.shards))
	sh := m.ix.shards[si]
	m.ref.add(si, sh.ids[name], sig, sh.mask)
	m.live = append(m.live, name)
	m.sigs = append(m.sigs, sig)
}

func (m *postingModel) delete() {
	if len(m.live) == 0 {
		return
	}
	i := m.rng.Intn(len(m.live))
	if ok, err := m.ix.Delete(m.live[i]); !ok || err != nil {
		m.t.Fatalf("%s: delete %s: ok=%v err=%v", m.name, m.live[i], ok, err)
	}
	m.live = slices.Delete(m.live, i, i+1)
}

// gens returns every stripe's row-numbering generation.
func (m *postingModel) gens() []uint64 {
	out := make([]uint64, len(m.ix.shards))
	for si, sh := range m.ix.shards {
		out[si] = sh.structGen
	}
	return out
}

// check probes ix with every signature in the pool and a few fresh ones
// and requires each shard's live candidate set to equal the
// reference's. Dead rows are left out of the comparison: a table
// rebuild drops every tombstoned row's postings, where the maps only
// dropped those of the stripes that compacted, and no scoring path
// looks at a dead row either way.
func (m *postingModel) check(ix *Index, what string) {
	m.t.Helper()
	buf := getSearchBuf()
	defer putSearchBuf(buf)
	queries := append(slices.Clone(m.sigs), m.sig(), m.sig())
	for qi, sig := range queries {
		query := &Sketch{Name: "q", K: ix.meta.K, Shingles: 5, Signature: sig}
		q := buf.prepare(ix, query, 0, len(ix.shards))
		buf.prepareBandKeys(ix, query)
		total := probeCandidates(ix.posts, ix.shards, q, buf.scratch)
		sum := 0
		for si, sh := range ix.shards {
			sc := &buf.scratch[si]
			sum += len(sc.cands)
			var got []int32
			for _, row := range sc.cands {
				if int(row) >= len(sh.names) {
					m.t.Fatalf("%s %s: query %d shard %d: candidate row %d of %d", m.name, what, qi, si, row, len(sh.names))
				}
				if !bitSet(sc.candSet, row) {
					m.t.Fatalf("%s %s: query %d shard %d: candidate row %d not in the bitset", m.name, what, qi, si, row)
				}
				if !sh.rowDead(row) {
					got = append(got, row)
				}
			}
			slices.Sort(got)
			if len(slices.Compact(slices.Clone(got))) != len(got) {
				m.t.Fatalf("%s %s: query %d shard %d: duplicate candidates %v", m.name, what, qi, si, got)
			}
			if want := m.ref.candidates(sh, si, sig); !slices.Equal(got, want) {
				m.t.Fatalf("%s %s: query %d shard %d: candidates %v, reference %v", m.name, what, qi, si, got, want)
			}
		}
		if total != sum {
			m.t.Fatalf("%s %s: query %d: probe returned %d candidates, scratch holds %d", m.name, what, qi, total, sum)
		}
	}
}

// TestPostingTableMatchesReference drives the posting table and the
// map-of-slices structure it replaced with the same seeded sequences of
// add / delete / SaveDir with its compaction pass (directory indexes) /
// Rebucket / reopen, over several shard counts, packing widths and band
// shapes, and requires equal candidate sets per shard for every query
// after every structural step. Every
// sequence starts from the 64-slot empty table, so the slot array grows
// several times mid-sequence, and holds records sharing every band.
func TestPostingTableMatchesReference(t *testing.T) {
	if unsafe.Sizeof(postSlot{}) != 16 || unsafe.Sizeof(posting{}) != 12 {
		t.Fatalf("postSlot is %d bytes and posting %d; the docs' bytes-per-record arithmetic says 16 and 12",
			unsafe.Sizeof(postSlot{}), unsafe.Sizeof(posting{}))
	}
	const slots = 16
	shapes := []LSHParams{{Bands: 4, RowsPerBand: 4}, {Bands: 16, RowsPerBand: 1}, {Bands: 1, RowsPerBand: 16}, {Bands: 8, RowsPerBand: 2}}
	seed, compactions := int64(0), 0
	for _, shards := range []int{1, 3, 16} {
		for _, bits := range []int{8, 16, 64} {
			for _, tiered := range []bool{false, true} {
				seed++
				lsh := shapes[int(seed)%len(shapes)]
				ix, err := NewIndexWith("model", 4, slots, lsh, shards, bits)
				if err != nil {
					t.Fatal(err)
				}
				if tiered {
					if err := ix.attachTier(t.TempDir(), 8); err != nil {
						t.Fatal(err)
					}
					defer ix.Close()
				}
				m := &postingModel{t: t, ix: ix, ref: newRefPostings(lsh, shards), rng: rand.New(rand.NewSource(seed)), slots: slots,
					name: fmt.Sprintf("shards=%d/bits=%d/tiered=%v/seed=%d", shards, bits, tiered, seed)}
				twin := m.sig()
				m.add(twin)
				m.add(slices.Clone(twin)) // shares every band with the row before
				for step := 0; step < 400; step++ {
					switch r := m.rng.Intn(100); {
					case r < 55:
						m.add(m.sig())
					case r < 60:
						m.add(slices.Clone(m.sigs[m.rng.Intn(len(m.sigs))]))
					case r < 88:
						m.delete()
					case r < 92 && tiered: // snapshot, compacting the stripes past the threshold
						before := m.gens()
						if err := ix.SaveDir(); err != nil {
							t.Fatalf("%s: save dir: %v", m.name, err)
						}
						if !slices.Equal(before, m.gens()) {
							compactions++
							m.ref = refFromLive(ix)
						}
						m.check(ix, fmt.Sprintf("step %d (snapshot)", step))
						loaded, err := Open(ix.DataDir())
						if err != nil {
							t.Fatalf("%s: reopen: %v", m.name, err)
						}
						m.check(loaded, fmt.Sprintf("step %d (reopened)", step))
						loaded.Close()
					case r < 95:
						lsh = shapes[m.rng.Intn(len(shapes))]
						if err := ix.Rebucket(lsh, shards); err != nil {
							t.Fatalf("%s: rebucket: %v", m.name, err)
						}
						m.ref = refFromLive(ix)
						m.check(ix, fmt.Sprintf("step %d (rebucket)", step))
					default:
						m.check(ix, fmt.Sprintf("step %d", step))
					}
				}
				m.check(ix, "end")
				if len(ix.posts.slots) <= minPostSlots {
					t.Fatalf("%s: the slot array never grew (%d slots)", m.name, len(ix.posts.slots))
				}
				bytes, buckets := ix.posts.size()
				if buckets == 0 || bytes < int64(buckets)*16 {
					t.Fatalf("%s: size() = %d bytes, %d buckets", m.name, bytes, buckets)
				}
			}
		}
	}
	if compactions < 20 {
		t.Fatalf("only %d snapshots compacted a stripe; the sequences never exercise the rebuild", compactions)
	}
}

// TestLSHPlantedGolden pins SearchTopKLSH on the planted corpus to the
// bytes the map-of-slices engine returned (testdata/lsh_planted.golden,
// written at the commit before the posting table): top-K, order,
// similarities.
func TestLSHPlantedGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/lsh_planted.golden")
	if err != nil {
		t.Fatal(err)
	}
	ix, q := plantedCorpus(t, 1000, 30, 7)
	var got strings.Builder
	for _, c := range []struct {
		topK   int
		minSim float64
	}{{10, 0}, {40, 0.3}, {5, 0.9}} {
		res, err := SearchTopKLSH(ix, q, c.topK, c.minSim, nil)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "# topK=%d minSim=%v\n", c.topK, c.minSim)
		for _, r := range res {
			fmt.Fprintf(&got, "%s %s %v %v\n", r.Query, r.Ref, r.Similarity, r.Distance)
		}
	}
	if got.String() != string(want) {
		t.Fatalf("LSH results differ from the golden file\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestProbeSkipsRowsPastSnapshot pins the rule for a posting whose row
// was appended after the probe's stripe snapshot: the add lands between
// beginProbe and the table pass, the probe must not name the new row
// (its bitset was sized without it), and the complement sweep must
// still find it, exactly once.
func TestProbeSkipsRowsPastSnapshot(t *testing.T) {
	ix, err := NewIndexWith("snap", 4, 8, LSHParams{Bands: 2, RowsPerBand: 4}, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	sig := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	add := func(name string) {
		t.Helper()
		if ok, err := ix.Add(&Sketch{Name: name, K: 4, Shingles: 5, Signature: sig}); !ok || err != nil {
			t.Fatalf("add %s: ok=%v err=%v", name, ok, err)
		}
	}
	// 64 rows fill the bitset's one word exactly, so the late row would
	// index past it.
	for i := 0; i < 64; i++ {
		add(fmt.Sprintf("early-%d", i))
	}
	buf := getSearchBuf()
	defer putSearchBuf(buf)
	query := &Sketch{Name: "q", K: 4, Shingles: 5, Signature: sig}
	q := buf.prepare(ix, query, 0.5, 1)
	buf.prepareBandKeys(ix, query)
	sh, sc := ix.shards[0], &buf.scratch[0]
	sh.beginProbe(sc)
	add("late")
	if got := ix.posts.probe(q.bandKeys, buf.scratch); got != 64 || len(sc.cands) != 64 {
		t.Fatalf("probe gathered %d candidates (%d in scratch), want the 64 rows of the snapshot", got, len(sc.cands))
	}
	for _, row := range sc.cands {
		if sh.names[row] == "late" {
			t.Fatal("probe named a row appended after its snapshot")
		}
	}
	if res := sh.scoreCandidates(nil, q, 100, sc); len(res) != 64 {
		t.Fatalf("candidate pass returned %d results, want 64", len(res))
	}
	rest := sh.scanRestAppend(nil, q, 100, sc)
	if len(rest) != 1 || rest[0].Ref != "late" {
		t.Fatalf("complement sweep = %+v, want the late row alone", rest)
	}
}

// TestPostingTableConcurrency races LSH and exact searches against
// batch adds, deletes, SaveDir passes that cross the compaction
// threshold and a live Rebucket. No search may fail, panic (an
// out-of-range row would) or name a record whose delete had already
// returned, and once everything is quiet LSH must equal exact on every
// planted query. Run under -race.
func TestPostingTableConcurrency(t *testing.T) {
	eng, err := NewEngine(Options{IndexName: "race", Bits: 8, Shards: 4, Tiered: true, DataDir: t.TempDir(), SegmentRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	ix := eng.Index()
	defer ix.Close()
	const families, members = 6, 8
	family := func(f, m int) Record {
		data := benchData(512, int64(f+1))
		rng := rand.New(rand.NewSource(int64(f*1000 + m)))
		for j := 0; j < 4; j++ {
			data[rng.Intn(len(data))] = byte('a' + rng.Intn(26))
		}
		return Record{Name: fmt.Sprintf("fam%d-%d", f, m), Data: data}
	}
	for f := 0; f < families; f++ {
		for m := 0; m < members; m++ {
			if _, err := eng.Add(family(f, m)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ix.SaveDir(); err != nil {
		t.Fatal(err)
	}
	queries := make([]*Sketch, families)
	for f := range queries {
		queries[f] = eng.Sketcher().Sketch(Record{Name: "q", Data: benchData(512, int64(f+1))})
	}

	// deleted[i] is set once churn-i's Delete has returned. A searcher
	// snapshots it before each search and blames only hits whose delete
	// was already over then; one racing the search is a legal hit.
	const churn = 300
	var deleted [churn]atomic.Bool
	stop, churned := make(chan struct{}), make(chan struct{})
	var writers, readers sync.WaitGroup
	writers.Add(1)
	go func() { // batches of churn records in, three quarters of them out again
		defer writers.Done()
		defer close(churned)
		for base := 0; base < churn; base += 20 {
			recs := make([]Record, 20)
			for i := range recs {
				recs[i] = Record{Name: fmt.Sprintf("churn-%d", base+i), Data: benchData(256, int64(5000+base+i))}
			}
			if _, err := eng.AddBatch(recs); err != nil {
				t.Errorf("add batch: %v", err)
				return
			}
			for i := 0; i < 15; i++ {
				if ok, err := eng.Delete(recs[i].Name); !ok || err != nil {
					t.Errorf("delete %s: ok=%v err=%v", recs[i].Name, ok, err)
					return
				}
				deleted[base+i].Store(true)
			}
		}
	}()
	// untilChurned repeats step until the churn is over, then once more.
	untilChurned := func(step func(i int) error) {
		defer writers.Done()
		for i, last := 0, false; !last; i++ {
			select {
			case <-churned:
				last = true
			default:
			}
			if err := step(i); err != nil {
				t.Errorf("%v", err)
				return
			}
		}
	}
	writers.Add(2)
	// Snapshots: with 3/4 of the churn deleted, stripes keep crossing
	// the 25% threshold.
	go untilChurned(func(int) error { return ix.SaveDir() })
	go untilChurned(func(i int) error {
		schemes := []LSHParams{{Bands: 64, RowsPerBand: 2}, {Bands: 16, RowsPerBand: 8}, {Bands: 32, RowsPerBand: 4}}
		return ix.Rebucket(schemes[(i+2)%len(schemes)], 4)
	})
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				var gone [churn]bool
				for i := range deleted {
					gone[i] = deleted[i].Load()
				}
				q := queries[(n+r)%families]
				search := SearchTopKLSH
				if (n+r)%3 == 0 {
					search = SearchTopK
				}
				res, err := search(ix, q, 2*members, 0, nil)
				if err != nil {
					t.Errorf("search: %v", err)
					return
				}
				for _, hit := range res {
					var i int
					if n, _ := fmt.Sscanf(hit.Ref, "churn-%d", &i); n == 1 && gone[i] {
						t.Errorf("search returned %s, deleted before it began", hit.Ref)
						return
					}
				}
			}
		}(r)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}
	if c := ix.compactions.Load(); c == 0 {
		t.Fatal("no SaveDir crossed the compaction threshold; the race never exercised a rebuild")
	}
	for f, q := range queries {
		exact, err := SearchTopK(ix, q, members, 0.3, nil)
		if err != nil {
			t.Fatal(err)
		}
		lsh, err := SearchTopKLSH(ix, q, members, 0.3, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(exact) != members || !slices.Equal(exact, lsh) {
			t.Fatalf("family %d after quiescence: lsh %+v, exact %+v", f, lsh, exact)
		}
	}
}
