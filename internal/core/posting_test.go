package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
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

func (r *refPostings) add(shard int, row int32, sig []uint64) {
	for band, buckets := range r.shards[shard] {
		key := r.params.bandKey(band, sig)
		buckets[key] = append(buckets[key], row)
	}
}

// refFromLive is what the old code did on a retune and on compaction:
// new maps from every live row.
func refFromLive(ix *Index) *refPostings {
	r := newRefPostings(ix.LSHParams(), len(ix.shards))
	var sc rowScratch
	for si, sh := range ix.shards {
		for i := range sh.names.len() {
			if !sh.rowDead(int32(i)) {
				sig, err := sh.full.row(i, &sc)
				if err != nil {
					panic(err)
				}
				r.add(si, int32(i), sig)
			}
		}
	}
	return r
}

// rebuilt is how the posting table was built before a seal merged the
// postings it already held, kept as the reference every seal is held to
// word for word: every live row of shards, its band keys under banding p
// hashed from the full-width store, sealed, beside an empty delta. A row
// the store cannot read files nowhere.
func rebuilt(p LSHParams, shards []*shard) *postingTable {
	nt, most, live := newPostingTable(p, len(shards)), 1, 0
	for _, sh := range shards {
		most, live = max(most, sh.names.len()), live+sh.names.len()-sh.deadRows
	}
	rowBits := uint(bits.Len(uint(most - 1)))
	ents := make([]uint64, 0, live*p.Bands) // fingerprint<<32 | posting, in (shard, row) order
	var sc rowScratch
	for si, sh := range shards {
		for i := range sh.names.len() {
			if sh.rowDead(int32(i)) {
				continue
			}
			sig, err := sh.full.row(i, &sc)
			if err != nil {
				continue
			}
			for band := range p.Bands {
				ents = append(ents, p.bandKey(band, sig)&^math.MaxUint32|uint64(si)<<rowBits|uint64(i))
			}
		}
	}
	nt.seal(sortEntries(ents, make([]uint64, len(ents)), 32), rowBits)
	return nt
}

// rebuild replaces t's contents with rebuilt's table: the old way to
// seal, for tests that want a sealed level from the full store. Callers
// exclude everything else, as for reseal.
func (t *postingTable) rebuild(p LSHParams, shards []*shard) {
	nt := rebuilt(p, shards)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.params, t.slots, t.posts, t.used = p, nt.slots, nt.posts, nt.used
	t.dir, t.dirBits, t.packed, t.rowBits, t.sealedUsed = nt.dir, nt.dirBits, nt.packed, nt.rowBits, nt.sealedUsed
	t.seals++
}

// sealedAsRebuilt reports how t, just sealed over shards, differs from
// rebuilt's table of the same live rows.
func sealedAsRebuilt(t *postingTable, shards []*shard) error {
	return sameSealed(t, rebuilt(t.params, shards))
}

// sameSealed reports how t differs from want, a table just sealed: the
// sealed words, directory, row and directory bits and bucket count, and
// an empty delta.
func sameSealed(t, want *postingTable) error {
	if !slices.Equal(t.packed, want.packed) || !slices.Equal(t.dir, want.dir) || t.rowBits != want.rowBits ||
		t.dirBits != want.dirBits || t.sealedUsed != want.sealedUsed || len(t.posts) != 1 || t.used != 0 {
		return fmt.Errorf("sealed %d words in %d buckets at %d row and %d directory bits beside %d delta postings; rebuild seals %d in %d at %d and %d (words equal %v, directory equal %v)",
			len(t.packed), t.sealedUsed, t.rowBits, t.dirBits, len(t.posts)-1, len(want.packed), want.sealedUsed, want.rowBits, want.dirBits,
			slices.Equal(t.packed, want.packed), slices.Equal(t.dir, want.dir))
	}
	return nil
}

// checked fails tb unless ix passes checkInvariants; resealed also
// unless its table, just sealed, is rebuilt's.
func checked(tb testing.TB, ix *Index, what string) {
	tb.Helper()
	if err := ix.checkInvariants(); err != nil {
		tb.Fatalf("%s: %v", what, err)
	}
}

func resealed(tb testing.TB, ix *Index, what string) {
	tb.Helper()
	checked(tb, ix, what)
	if err := sealedAsRebuilt(ix.posts, ix.shards); err != nil {
		tb.Fatalf("%s: %v", what, err)
	}
}

// candidates returns shard's live candidate rows for sig, ascending.
func (r *refPostings) candidates(sh *shard, shard int, sig []uint64) []int32 {
	var out []int32
	for band, buckets := range r.shards[shard] {
		for _, row := range buckets[r.params.bandKey(band, sig)] {
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
	delta int // the most delta slots seen after an add
	live  []string
	sigs  [][]uint64 // every signature ever added: the query pool
	next  int
}

// sig draws a signature over a tiny alphabet, so buckets are shared and
// chains get long, with noise above bit 8 that band keys must mask.
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
	m.ref.add(si, sh.names.lookup(name, sh.dead), sig)
	m.live = append(m.live, name)
	m.sigs = append(m.sigs, sig)
	m.delta = max(m.delta, len(m.ix.posts.slots))
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

// reopen commits what the model's directory index holds (a snapshot if
// it has none yet, else its log), closes it and opens the directory
// under lsh, so the log's tail replays and one reseal seals everything.
// It returns the seals the closed index's table had made.
func (m *postingModel) reopen(lsh LSHParams, what string) uint64 {
	m.t.Helper()
	old := m.ix
	var err error
	if old.WAL() == nil {
		err = old.SaveDir()
	} else {
		err = old.SyncWAL(old.WALTicket())
	}
	if err != nil {
		m.t.Fatalf("%s %s: commit: %v", m.name, what, err)
	}
	_, _, _, seals := old.posts.size()
	old.Close()
	ix, err := OpenWith(old.DataDir(), lsh)
	if err != nil {
		m.t.Fatalf("%s %s: %v", m.name, what, err)
	}
	m.t.Cleanup(func() { ix.Close() })
	m.ix, m.ref = ix, refFromLive(ix)
	resealed(m.t, ix, m.name+" "+what)
	m.check(ix, what)
	return seals
}

// addTwin adds a copy of some signature added before and checks: after a
// seal the copy lands in the delta beside the sealed buckets of the
// rows it matches, so their queries read both levels. It returns 1 if
// both levels hold buckets now.
func (m *postingModel) addTwin(what string) int {
	m.t.Helper()
	m.add(slices.Clone(m.sigs[m.rng.Intn(len(m.sigs))]))
	m.check(m.ix, what)
	if m.ix.posts.sealedUsed > 0 && m.ix.posts.used > 0 {
		return 1
	}
	return 0
}

// check probes ix with every signature in the pool and a few fresh ones
// and requires each shard's live candidate set to equal the
// reference's. Dead rows are left out of the comparison: a reseal
// drops every tombstoned row's postings, where the maps only
// dropped those of the stripes that compacted, and no scoring path
// looks at a dead row either way.
func (m *postingModel) check(ix *Index, what string) {
	m.t.Helper()
	checked(m.t, ix, m.name+" "+what)
	buf := getSearchBuf()
	defer putSearchBuf(buf)
	queries := append(slices.Clone(m.sigs), m.sig(), m.sig())
	for qi, sig := range queries {
		query := &Sketch{Name: "q", K: ix.meta.K, Shingles: 5, Signature: sig}
		q := buf.prepare(query, 0, len(ix.shards))
		buf.prepareBandKeys(ix, query)
		total := probeCandidates(ix.posts, ix.shards, q, buf.scratch)
		sum := 0
		for si, sh := range ix.shards {
			sc := &buf.scratch[si]
			sum += len(sc.cands)
			var got []int32
			for _, row := range sc.cands {
				if int(row) >= sh.names.len() {
					m.t.Fatalf("%s %s: query %d shard %d: candidate row %d of %d", m.name, what, qi, si, row, sh.names.len())
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
// add / delete / SaveDir with its compaction pass / reopen, as it is and
// under another banding (directory indexes), over several shard counts,
// heap and directory stores and band shapes, and requires equal
// candidate sets per shard for every query after every structural step.
// Every sequence starts from the 64-slot empty delta, so its slot array
// grows mid-sequence, holds records sharing every band, and files rows
// after a seal, so one query reads both levels.
func TestPostingTableMatchesReference(t *testing.T) {
	if unsafe.Sizeof(postSlot{}) != 16 || unsafe.Sizeof(posting{}) != 12 {
		t.Fatalf("postSlot is %d bytes and posting %d; the docs' bytes-per-record arithmetic says 16 and 12",
			unsafe.Sizeof(postSlot{}), unsafe.Sizeof(posting{}))
	}
	const slots = 16
	shapes := []LSHParams{{Bands: 4, RowsPerBand: 4}, {Bands: 16, RowsPerBand: 1}, {Bands: 1, RowsPerBand: 16}, {Bands: 8, RowsPerBand: 2}}
	seed, compactions, seals, split := int64(0), 0, uint64(0), 0
	for _, shards := range []int{1, 3, 16} {
		for _, tiered := range []bool{false, true} {
			seed++
			lsh := shapes[int(seed)%len(shapes)]
			ix, err := NewIndexWith("model", 4, slots, lsh, shards)
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
				name: fmt.Sprintf("shards=%d/tiered=%v/seed=%d", shards, tiered, seed)}
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
					before, sealed := m.ix.compactions.Load(), m.ix.posts.seals
					if err := m.ix.SaveDir(); err != nil {
						t.Fatalf("%s: save dir: %v", m.name, err)
					}
					if m.ix.compactions.Load() != before {
						compactions++
						m.ref = refFromLive(m.ix)
					}
					if m.ix.posts.seals != sealed {
						resealed(t, m.ix, fmt.Sprintf("%s: step %d (snapshot)", m.name, step))
					}
					m.check(m.ix, fmt.Sprintf("step %d (snapshot)", step))
					loaded, err := Open(m.ix.DataDir())
					if err != nil {
						t.Fatalf("%s: reopen: %v", m.name, err)
					}
					resealed(t, loaded, fmt.Sprintf("%s: step %d (reopened)", m.name, step))
					m.check(loaded, fmt.Sprintf("step %d (reopened)", step))
					loaded.Close()
					split += m.addTwin(fmt.Sprintf("step %d (add after snapshot)", step))
				case r < 95 && tiered: // retune: reopen under another banding
					seals += m.reopen(shapes[m.rng.Intn(len(shapes))], fmt.Sprintf("step %d (retuned)", step))
					split += m.addTwin(fmt.Sprintf("step %d (add after retune)", step))
				default:
					m.check(m.ix, fmt.Sprintf("step %d", step))
				}
			}
			m.check(m.ix, "end")
			if m.delta <= minPostSlots {
				t.Fatalf("%s: the delta's slot array never grew between seals (%d slots)", m.name, m.delta)
			}
			bytes, buckets, _, sealed := m.ix.posts.size()
			if buckets == 0 || bytes < int64(buckets)*8 {
				t.Fatalf("%s: size() = %d bytes, %d buckets", m.name, bytes, buckets)
			}
			seals += sealed
		}
	}
	if compactions < 20 || seals < 20 || split < 20 {
		t.Fatalf("only %d snapshots compacted a stripe, %d seals ran and %d checks read both levels; the sequences never exercise the reseal",
			compactions, seals, split)
	}
}

// TestLSHPlantedGolden pins LSH-mode searches on the planted corpus to
// the bytes the map-of-slices engine returned
// (testdata/lsh_planted.golden, written at the commit before the
// posting table): top-K, order, similarities.
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
		res, err := search(ix, q, ModeLSH, c.topK, c.minSim)
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
	ix, err := NewIndexWith("snap", 4, 8, LSHParams{Bands: 2, RowsPerBand: 4}, 1)
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
	q := buf.prepare(query, 0.5, 1)
	buf.prepareBandKeys(ix, query)
	sh, sc := ix.shards[0], &buf.scratch[0]
	sh.beginProbe(sc)
	add("late")
	if got := ix.posts.probe(q.bandKeys, buf.scratch); got != 64 || len(sc.cands) != 64 {
		t.Fatalf("probe gathered %d candidates (%d in scratch), want the 64 rows of the snapshot", got, len(sc.cands))
	}
	for _, row := range sc.cands {
		if sh.names.is(row, "late") {
			t.Fatal("probe named a row appended after its snapshot")
		}
	}
	if res := sh.scoreCandidates(nil, q, 100, sc); len(res) != 64 {
		t.Fatalf("candidate pass returned %d results, want 64", len(res))
	}
	rest := sh.sweep(nil, q, 100, sc)
	if len(rest) != 1 || rest[0].Ref != "late" {
		t.Fatalf("complement sweep = %+v, want the late row alone", rest)
	}
}

// TestPostingTableConcurrency races LSH and exact searches against
// batch adds, deletes and SaveDir passes that cross the compaction
// threshold. No search may fail, panic (an
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
			if _, err := addRecord(eng, family(f, m)); err != nil {
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
	writers.Add(1)
	// Snapshots until the churn is over, then once more: with 3/4 of the
	// churn deleted, stripes keep crossing the 25% threshold.
	go func() {
		defer writers.Done()
		for last := false; !last; {
			select {
			case <-churned:
				last = true
			default:
			}
			if err := ix.SaveDir(); err != nil {
				t.Errorf("save dir: %v", err)
				return
			}
		}
	}()
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
				mode := ModeLSH
				if (n+r)%3 == 0 {
					mode = ModeExact
				}
				res, err := search(ix, q, mode, 2*members, 0)
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
		t.Fatal("no SaveDir crossed the compaction threshold; the race never exercised a reseal")
	}
	for f, q := range queries {
		exact, err := search(ix, q, ModeExact, members, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		lsh, err := search(ix, q, ModeLSH, members, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if len(exact) != members || !slices.Equal(exact, lsh) {
			t.Fatalf("family %d after quiescence: lsh %+v, exact %+v", f, lsh, exact)
		}
	}
}

// setPostingLimit lowers one of the posting table's address-space limits
// for the rest of the test.
func setPostingLimit(t *testing.T, limit *int, to int) {
	old := *limit
	*limit = to
	t.Cleanup(func() { *limit = old })
}

// TestPostingRowBitsFallback narrows a sealed posting until, beside 3
// stripes, it names 64 rows a stripe: the 65th row of a stripe is refused
// with ErrIndexFull before the tier, the arena or the WAL has taken it,
// the index keeps answering and reopens as it was, and a directory whose
// stripe holds more rows than a posting can name fails to open, naming
// the stripe.
func TestPostingRowBitsFallback(t *testing.T) {
	setPostingLimit(t, &postingBits, 8) // 3 stripes take 2 bits: 64 rows a stripe
	lsh := LSHParams{Bands: 16, RowsPerBand: 1}
	ix, err := NewIndexWith("narrow", 4, 16, lsh, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.attachTier(t.TempDir(), 8); err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	m := &postingModel{t: t, name: "narrow", ix: ix, ref: newRefPostings(lsh, 3), rng: rand.New(rand.NewSource(1)), slots: 16}
	for i := 0; i < 90; i++ {
		m.add(m.sig())
	}
	m.reopen(lsh, "packed")
	if _, _, delta, seals := m.ix.posts.size(); seals != 1 || m.ix.posts.sealedUsed == 0 || delta != 0 {
		t.Fatalf("30 rows a stripe: %d seals, %d sealed buckets, %d delta postings; want everything sealed", seals, m.ix.posts.sealedUsed, delta)
	}
	name := ""
	for name == "" { // add until the next name's stripe holds 64 rows
		if next := fmt.Sprintf("r%d", m.next); m.ix.shards[shardFor(next, 3)].names.len() == 64 {
			name = next
		} else {
			m.add(m.sig())
		}
	}
	sh, records, before, wal := m.ix.shards[shardFor(name, 3)], m.ix.Len(), m.ix.Tier(), m.ix.WAL()
	if ok, err := m.ix.Add(&Sketch{Name: name, K: 4, Shingles: 5, Signature: m.sig()}); ok || !errors.Is(err, ErrIndexFull) {
		t.Fatalf("the 65th row of a stripe: ok=%v err=%v, want ErrIndexFull", ok, err)
	}
	if after := m.ix.Tier(); m.ix.Len() != records || m.ix.Has(name) || sh.arena.rows != 64 || *after != *before || *m.ix.WAL() != *wal {
		t.Fatalf("a refused add left a trace: %d records, %d arena rows, tier %+v -> %+v, wal %+v -> %+v", m.ix.Len(), sh.arena.rows, before, after, wal, m.ix.WAL())
	}
	m.check(m.ix, "refused")
	if res, err := search(m.ix, &Sketch{Name: "q", K: 4, Shingles: 5, Signature: m.sigs[0]}, ModeLSH, 5, 0); err != nil || len(res) == 0 {
		t.Fatalf("search on a full stripe: %d results, err %v", len(res), err)
	}
	m.reopen(lsh, "reopened full")
	if m.ix.Len() != records || m.ix.Has(name) {
		t.Fatalf("reopened %d records (has %s: %v), want the %d acked", m.ix.Len(), name, m.ix.Has(name), records)
	}

	if err := m.ix.SaveDir(); err != nil { // the manifest holds the full stripe
		t.Fatal(err)
	}
	setPostingLimit(t, &postingBits, 7) // 32 rows a stripe
	wide := slices.IndexFunc(m.ix.shards, func(sh *shard) bool { return sh.names.len() > 32 })
	if _, err := Open(m.ix.DataDir()); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("manifest shard %d: ", wide)) {
		t.Fatalf("open with stripes of %d rows, 32 nameable: err %v, want one naming stripe %d", sh.names.len(), err, wide)
	}
}

// TestPostingFingerprintMerge plants two rows whose band keys differ but
// share their top 32 bits: sealed, they share a bucket, so the probe for
// one names the other too — and nothing else changes, because the extra
// candidate is scored like any other. A reopen seals.
func TestPostingFingerprintMerge(t *testing.T) {
	lsh := LSHParams{Bands: 1, RowsPerBand: 4}
	eng, err := NewEngine(Options{IndexName: "merge", K: 4, SignatureSize: 4, Bands: 1, RowsPerBand: 4, Shards: 1, Tiered: true, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ix := eng.Index()
	defer ix.Close()
	rng := rand.New(rand.NewSource(1))
	seen := map[uint32][]uint64{}
	var a, b []uint64
	for a == nil {
		sig := []uint64{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
		fp := uint32(lsh.bandKey(0, sig) >> 32)
		if other, ok := seen[fp]; ok {
			a, b = other, sig
		}
		seen[fp] = sig
	}
	if ka, kb := lsh.bandKey(0, a), lsh.bandKey(0, b); ka == kb || ka>>32 != kb>>32 {
		t.Fatalf("keys %x and %x: want distinct keys with one fingerprint", ka, kb)
	}
	add := func(ix *Index, name string, sig []uint64) {
		t.Helper()
		if ok, err := ix.Add(&Sketch{Name: name, K: 4, Shingles: 5, Signature: sig}); !ok || err != nil {
			t.Fatalf("add %s: ok=%v err=%v", name, ok, err)
		}
	}
	add(ix, "a", a)
	add(ix, "b", b)
	for i := 0; i < 50; i++ {
		add(ix, fmt.Sprintf("noise-%d", i), []uint64{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()})
	}
	query := &Sketch{Name: "q", K: 4, Shingles: 5, Signature: a}
	probe := func(ix *Index) []string {
		buf := getSearchBuf()
		defer putSearchBuf(buf)
		q := buf.prepare(query, 0, 1)
		buf.prepareBandKeys(ix, query)
		probeCandidates(ix.posts, ix.shards, q, buf.scratch)
		var names []string
		for _, row := range buf.scratch[0].cands {
			names = append(names, ix.shards[0].names.name(row))
		}
		return names
	}
	if got := probe(ix); !slices.Equal(got, []string{"a"}) {
		t.Fatalf("delta candidates %v, want a alone: the delta keys by the whole key", got)
	}
	want, err := search(ix, query, ModeExact, 5, 0.1)
	if err != nil || len(want) != 1 {
		t.Fatalf("exact search: %+v, err %v", want, err)
	}
	if err := ix.SaveDir(); err != nil {
		t.Fatal(err)
	}
	loaded, err := Open(ix.DataDir())
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if got := probe(loaded); !slices.Equal(got, []string{"a", "b"}) {
		t.Fatalf("sealed candidates %v, want a and b", got)
	}
	add(loaded, "a-twin", a) // the bucket now spans both levels
	if got := probe(loaded); !slices.Equal(got, []string{"a", "b", "a-twin"}) {
		t.Fatalf("candidates over both levels %v, want a, b and a-twin", got)
	}
	wantHits := append(slices.Clone(want), Result{Query: "q", Ref: "a-twin", Similarity: 1})
	if got, err := search(loaded, query, ModeLSH, 5, 0.1); err != nil || !slices.Equal(got, wantHits) {
		t.Fatalf("lsh search %+v, err %v; want %+v", got, err, wantHits)
	}
}

// TestPostingBytesPerRecord pins the sealed level's size as a count, and
// the rule that reseals a grown delta: 2 000 records in families of 20
// at 32 bands, opened from their directory, cost at most 160 table bytes
// each with nothing in the delta — 4 a posting and at most 1 a band of
// directory; a delta under the floor stays through a SaveDir, one past a
// quarter of the sealed count is sealed by it.
func TestPostingBytesPerRecord(t *testing.T) {
	const families = 100
	ix, err := Open(familyCorpus(t, families).Index().DataDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	state := func() (perRecord, delta int, seals uint64) {
		bytes, _, delta, seals := ix.posts.size()
		return int(bytes) / ix.Len(), delta, seals
	}
	if per, delta, seals := state(); per > 160 || delta != 0 || seals != 1 {
		t.Fatalf("opened: %d table bytes per record, %d delta postings, %d seals; want <= 160, 0, 1", per, delta, seals)
	}
	sk, err := NewSketcher(DefaultK, DefaultSignatureSize)
	if err != nil {
		t.Fatal(err)
	}
	grow := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if ok, err := ix.Add(sk.Sketch(Record{Name: fmt.Sprintf("late-%d", i), Data: familyMember(i%families, 100+i)})); !ok || err != nil {
				t.Fatalf("add %d: ok=%v err=%v", i, ok, err)
			}
		}
		if err := ix.SaveDir(); err != nil {
			t.Fatal(err)
		}
	}
	grow(0, 100)
	if _, delta, seals := state(); delta != 100*32 || seals != 1 {
		t.Fatalf("100 adds and a snapshot: %d delta postings, %d seals; want %d under the floor, unsealed", delta, seals, 100*32)
	}
	grow(100, 501) // 501 x 32 postings: one row past a quarter of the 2 000 x 32 sealed
	if per, delta, seals := state(); per > 160 || delta != 0 || seals != 2 {
		t.Fatalf("501 adds and a snapshot: %d table bytes per record, %d delta postings, %d seals; want <= 160, 0, 2", per, delta, seals)
	}
	for f := 0; f < families; f += 7 {
		q := sk.Sketch(Record{Name: "q", Data: familyMember(f, -1)})
		exact, err := search(ix, q, ModeExact, 10, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if lsh, err := search(ix, q, ModeLSH, 10, 0.3); err != nil || len(lsh) != 10 || !slices.Equal(lsh, exact) {
			t.Fatalf("family %d after the reseal: lsh %+v (err %v), exact %+v", f, lsh, err, exact)
		}
	}
}

// sealedTable seals rows[k] under every key k into a bare one-stripe
// table, its postings as wide as its largest row, as a reseal would make
// them, and checks the counts size, sealDue and full go by: a bucket
// each, a word a posting.
func sealedTable(t *testing.T, rows map[uint64][]int32) *postingTable {
	t.Helper()
	tab := newPostingTable(LSHParams{Bands: 1, RowsPerBand: 1}, 1)
	var ents []uint64
	rowBits := uint(0)
	for k, rs := range rows {
		for _, r := range rs {
			ents = append(ents, k&^math.MaxUint32|uint64(r))
			rowBits = max(rowBits, uint(bits.Len32(uint32(r))))
		}
	}
	slices.Sort(ents)
	tab.seal(ents, rowBits)
	if _, buckets, _, _ := tab.size(); buckets != len(rows) || len(tab.packed) != len(ents) {
		t.Fatalf("sealed %d buckets in %d words, want %d buckets and a word for each of the %d postings", buckets, len(tab.packed), len(rows), len(ents))
	}
	return tab
}

// probeRows returns the rows (all below n) a probe for key gathers, sorted.
func probeRows(t *testing.T, tab *postingTable, key uint64, n int) []int32 {
	t.Helper()
	scratch := make([]shardScratch, 1)
	scratch[0].resetFor(n)
	if total := tab.probe([]uint64{key}, scratch); total != len(scratch[0].cands) {
		t.Fatalf("probe %x returned %d, scratch holds %d", key, total, len(scratch[0].cands))
	}
	slices.Sort(scratch[0].cands)
	return scratch[0].cands
}

// TestSealedDirectory pins the sealed level's layout at its edges: buckets
// of one posting and of hundreds side by side (each offered whole, once,
// counted as one bucket, and a word a posting), the directory's first and
// last cells empty and occupied, and a bucket count on either side of a
// directory doubling.
func TestSealedDirectory(t *testing.T) {
	run := func(from, n int) []int32 {
		rows := make([]int32, n)
		for i := range rows {
			rows[i] = int32(from + i)
		}
		return rows
	}
	fp := func(f uint32) uint64 { return uint64(f)<<32 | 7 }
	check := func(what string, tab *postingTable, rows map[uint64][]int32, absent ...uint64) {
		t.Helper()
		for k, want := range rows {
			if got := probeRows(t, tab, k, 4096); !slices.Equal(got, want) {
				t.Fatalf("%s: key %x: %d rows %v, want the %d filed", what, k, len(got), got, len(want))
			}
		}
		for _, k := range absent {
			if got := probeRows(t, tab, k, 4096); len(got) != 0 {
				t.Fatalf("%s: absent key %x gathered %v", what, k, got)
			}
		}
	}

	// Neighbours in one cell — rows up to 1 622 make the directory 11
	// bits wide, and the fingerprints differ in their low bits only — so
	// a walk steps over the entries it does not want and takes every one
	// it does, however long the buckets either side.
	long := map[uint64][]int32{
		fp(0x40000001): run(0, 1), fp(0x40000002): run(1, 255), fp(0x40000003): run(256, 256),
		fp(0x40000004): run(512, 600), fp(0x40000005): run(1112, 510), fp(0x40000006): run(1622, 1),
	}
	tab := sealedTable(t, long)
	if tab.dirBits != 11 || len(tab.packed) != 1+255+256+600+510+1 {
		t.Fatalf("%d directory bits, %d packed words; want 11 and one word a posting", tab.dirBits, len(tab.packed))
	}
	check("long buckets", tab, long, fp(0x40000000), fp(0x40000007), fp(0x3fffffff))

	inner := map[uint64][]int32{fp(0x01000000): run(0, 2), fp(0x80000000): run(2, 1), fp(0xfeffffff): run(3, 2)}
	check("empty end cells", sealedTable(t, inner), inner, fp(0), fp(0x00ffffff), fp(0xff000000), fp(0xffffffff))
	outer := map[uint64][]int32{fp(0): run(0, 2), fp(0x00ffffff): run(2, 1), fp(0xff000000): run(3, 1), fp(0xffffffff): run(4, 2)}
	check("occupied end cells", sealedTable(t, outer), outer, fp(1), fp(0x01000000), fp(0xfeffffff), fp(0xfffffffe))

	// 2 047 buckets keep the 256-cell floor, 2 048 take nine bits: the
	// entries' tags move up by one. Rows stay below 256, so the bucket
	// count sets the width, not the postings'.
	for buckets, wantBits := range map[int]uint{8<<minDirBits - 1: minDirBits, 8 << minDirBits: minDirBits + 1} {
		many := map[uint64][]int32{}
		for i := 0; i < buckets; i++ {
			many[fp(uint32(i)*0x9e3779b1)] = run(i%250, 1+i%3)
		}
		tab := sealedTable(t, many)
		if tab.dirBits != wantBits || len(tab.dir) != 1<<wantBits+1 {
			t.Fatalf("%d buckets: %d directory bits over %d entries, want %d", buckets, tab.dirBits, len(tab.dir), wantBits)
		}
		check(fmt.Sprintf("%d buckets", buckets), tab, many, fp(0x12345678))
	}
}

// TestSealCountsPostingsNotWords seals nothing but singleton buckets, the
// layout that once took a header word to every posting: packed holds one
// word each, and the reseal rule and the address-space check go by
// postings.
func TestSealCountsPostingsNotWords(t *testing.T) {
	const sealed = 4 * sealMinDelta
	singles := map[uint64][]int32{}
	for i := 0; i < sealed; i++ {
		singles[uint64(i)*0x9e3779b1<<32] = []int32{int32(i)}
	}
	tab := sealedTable(t, singles)
	if len(tab.packed) != sealed {
		t.Fatalf("%d packed words for %d singleton buckets, want one word each", len(tab.packed), sealed)
	}
	for i := 0; i < sealMinDelta; i++ {
		tab.insert(uint64(i), 0, int32(i))
	}
	if tab.sealDue() {
		t.Fatalf("a delta of a quarter of the %d sealed postings is due already", sealed)
	}
	setPostingLimit(t, &maxPostings, 2+sealed+sealMinDelta+2) // room for one row more, twice
	tab.insert(sealMinDelta, 0, 0)
	if !tab.sealDue() || tab.full(0) {
		t.Fatalf("one posting past a quarter: due=%v full=%v, want due and not full", tab.sealDue(), tab.full(0))
	}
	tab.insert(sealMinDelta+1, 0, 0)
	if !tab.full(0) {
		t.Fatal("sealed plus delta postings reached the limit and the table is not full")
	}
}

// TestPostingResealsFromEmpty opens an empty index, whose open seals
// nothing over stripes of no rows — a posting of no row bits — and adds
// more than sealMinDelta postings to it: the next SaveDir must seal them.
func TestPostingResealsFromEmpty(t *testing.T) {
	eng, err := NewEngine(Options{IndexName: "empty", Tiered: true, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Index().Close()
	if err := eng.Index().SaveDir(); err != nil {
		t.Fatal(err)
	}
	ix, err := Open(eng.Index().DataDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if _, _, delta, seals := ix.posts.size(); seals != 1 || ix.posts.rowBits != 0 || delta != 0 {
		t.Fatalf("opened empty: %d seals, %d row bits, %d delta postings; want 1, 0, 0", seals, ix.posts.rowBits, delta)
	}
	const families, adds = 10, sealMinDelta/32 + 1
	sk := eng.Sketcher()
	for i := 0; i < adds; i++ {
		if ok, err := ix.Add(sk.Sketch(Record{Name: fmt.Sprintf("r%d", i), Data: familyMember(i%families, i)})); !ok || err != nil {
			t.Fatalf("add %d: ok=%v err=%v", i, ok, err)
		}
	}
	if err := ix.SaveDir(); err != nil {
		t.Fatal(err)
	}
	if _, _, delta, seals := ix.posts.size(); seals != 2 || delta != 0 || len(ix.posts.packed) != adds*32 {
		t.Fatalf("%d adds and a snapshot: %d seals, %d delta and %d sealed postings; want 2, 0, %d", adds, seals, delta, len(ix.posts.packed), adds*32)
	}
	for f := 0; f < families; f++ {
		q := sk.Sketch(Record{Name: "q", Data: familyMember(f, -1)})
		exact, err := search(ix, q, ModeExact, 10, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if lsh, err := search(ix, q, ModeLSH, 10, 0.3); err != nil || len(lsh) != 10 || !slices.Equal(lsh, exact) {
			t.Fatalf("family %d after the reseal: lsh %+v (err %v), exact %+v", f, lsh, err, exact)
		}
	}
}

// TestPostingDirectoryCoversPostings reseals the table over stripe shapes
// a posting's width comes out of unevenly — stripes of no row and of one
// beside a large one, an odd stripe count, a largest stripe one past a
// power of two — and checks that the directory is never narrower than
// the widest posting it seals, or tags and postings would overlap; that
// every row's own signature probes back to it and to nothing else; and
// that the directory stays within 16 B a row of stripes × the largest
// stripe's rows — 16 B a row outright on the balanced shapes that
// hashing names to stripes gives.
func TestPostingDirectoryCoversPostings(t *testing.T) {
	lsh := LSHParams{Bands: 1, RowsPerBand: 4}
	rng := rand.New(rand.NewSource(9))
	for _, c := range []struct {
		shape    []int
		balanced bool
	}{
		{[]int{1}, false}, {[]int{0, 0, 1}, false}, {[]int{1, 1, 1, 1, 1, 1, 1, 1, 1}, false},
		{[]int{0, 1, 600, 0, 1}, false}, {[]int{2049, 0, 0, 0, 0, 0, 0, 3}, false},
		{[]int{129, 129, 129, 129, 129, 129, 129, 129, 129, 129, 129, 129, 129, 129, 129, 129, 129}, true},
		{[]int{1025, 1025, 1025}, true}, {[]int{257, 250, 240, 257}, true},
	} {
		shape := c.shape
		ix, err := NewIndexWith("shape", 4, 4, lsh, len(shape))
		if err != nil {
			t.Fatal(err)
		}
		sigs, left, rows, most := map[string][]uint64{}, slices.Clone(shape), 0, 1
		for _, n := range shape {
			rows, most = rows+n, max(most, n)
		}
		for i := 0; len(sigs) < rows; i++ {
			name := fmt.Sprintf("r%d", i)
			if si := shardFor(name, len(shape)); left[si] > 0 {
				left[si]--
				sigs[name] = []uint64{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
				if ok, err := ix.Add(&Sketch{Name: name, K: 4, Shingles: 5, Signature: sigs[name]}); !ok || err != nil {
					t.Fatalf("%v: add %s: ok=%v err=%v", shape, name, ok, err)
				}
			}
		}
		ix.posts.reseal(ix.shards, nil)
		if err := sealedAsRebuilt(ix.posts, ix.shards); err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		tab, widest := ix.posts, 0
		for si, n := range shape {
			if n > 0 {
				widest = si<<tab.rowBits | (n - 1)
			}
		}
		if tab.rowBits != uint(bits.Len(uint(most-1))) || tab.dirBits < uint(bits.Len(uint(widest))) || len(tab.packed) != rows {
			t.Fatalf("%v: %d row bits, %d directory bits, %d sealed postings; want %d, at least %d, %d",
				shape, tab.rowBits, tab.dirBits, len(tab.packed), bits.Len(uint(most-1)), bits.Len(uint(widest)), rows)
		}
		for name, sig := range sigs {
			if got := probeNames(ix, sig); len(got) != 1 || !got[name] {
				t.Fatalf("%v: %s probes back %v", shape, name, got)
			}
		}
		if dirBytes := 4 * len(tab.dir); tab.dirBits > minDirBits && (dirBytes > 16*len(shape)*most || c.balanced && dirBytes > 16*rows) {
			t.Fatalf("%v: a %d-bit directory of %d bytes for %d rows in %d stripes of at most %d: over 16 B a row",
				shape, tab.dirBits, dirBytes, rows, len(shape), most)
		}
		t.Logf("%v: %d directory bits, %.1f directory bytes a row", shape, tab.dirBits, float64(4*len(tab.dir))/float64(rows))
	}
}

// TestAddRefusedWhenPostingsFull lowers the table's address space until
// an add would not fit: Index.Add must refuse with ErrIndexFull before
// the tier, the arena or the WAL has taken the row, and the index must
// keep answering and reopen as it was.
func TestAddRefusedWhenPostingsFull(t *testing.T) {
	eng := familyCorpus(t, 1)
	ix := eng.Index()
	// 20 rows x 32 bands are filed; room for one more row per stripe, once.
	setPostingLimit(t, &maxPostings, 2+20*32+32*DefaultShards)
	rec := func(i int) *Sketch {
		return eng.Sketcher().Sketch(Record{Name: fmt.Sprintf("more-%d", i), Data: familyMember(0, 50+i)})
	}
	if ok, err := ix.Add(rec(0)); !ok || err != nil {
		t.Fatalf("the add that fits: ok=%v err=%v", ok, err)
	}
	before, wal := ix.Tier(), ix.WAL()
	ok, err := ix.Add(rec(1))
	if ok || !errors.Is(err, ErrIndexFull) {
		t.Fatalf("the add that does not fit: ok=%v err=%v, want ErrIndexFull", ok, err)
	}
	if after := ix.Tier(); ix.Len() != 21 || ix.Has("more-1") || *after != *before || *ix.WAL() != *wal {
		t.Fatalf("a refused add left a trace: %d records, tier %+v -> %+v, wal %+v -> %+v", ix.Len(), before, after, wal, ix.WAL())
	}
	q := eng.Sketcher().Sketch(Record{Name: "q", Data: familyMember(0, -1)})
	if res, err := search(ix, q, ModeLSH, 30, 0.3); err != nil || len(res) != 21 {
		t.Fatalf("search on a full index: %d results, err %v; want the 21 records", len(res), err)
	}
	if err := ix.SyncWAL(ix.WALTicket()); err != nil {
		t.Fatal(err)
	}
	loaded, err := Open(ix.DataDir())
	if err != nil {
		t.Fatalf("reopen a full index: %v", err)
	}
	defer loaded.Close()
	if loaded.Len() != 21 {
		t.Fatalf("reopened %d records, want 21", loaded.Len())
	}
}

// FuzzPostingTable reads its input as add(key, shard, row) / reseal /
// probe(two keys) / kill(shard, row) or compact(stripe) steps on a bare
// table over three stripes of 64 rows, beside a map from key to
// postings. A key byte's high nibble picks one of 16 fingerprints and
// its low two bits tell keys of one fingerprint apart, so inputs can make
// sealed buckets merge. A kill tombstones a row; a reseal — the
// production merge of the table's own two levels — drops the postings of
// dead rows, and a compaction first renumbers its stripe past them, as
// the index does, and reseals. After each, the table must be word for
// word the one sealed from the map. Every probe must gather each row
// once, at least what the map files under the probed keys and at most
// what it files under keys with their fingerprints — which is equality
// whenever no two live keys share one. The table passes checkLevels
// after every step.
func FuzzPostingTable(f *testing.F) {
	f.Add([]byte{0, 0x10, 7, 0, 0x20, 8, 5, 0, 0x10, 9, 6, 0x10, 0x20})    // no shared fingerprint; a bucket in both levels
	f.Add([]byte{0, 0x31, 1, 0, 0x32, 2, 0, 0x31, 1, 5, 6, 0x31, 0x33, 5}) // two keys, one fingerprint; a row filed twice
	f.Add([]byte{5, 6, 0, 0})                                              // sealing and probing nothing
	var long, singles []byte
	for i := 0; i < 300; i++ {
		long = append(long, 0, 0x50, byte(i), 5)
	}
	f.Add(append(long, 6, 0x50, 0x51)) // one key added and sealed 300 times: one bucket of 300 postings
	for k := 0; k < 16; k++ {
		singles = append(singles, 0, byte(k<<4), byte(k))
	}
	f.Add(append(singles, 5, 6, 0x30, 0xf0)) // nothing but singleton buckets
	// Rows of every stripe under two keys, some killed, a reseal, more
	// adds and kills, then a compaction of stripe 1 and a probe.
	var churn []byte
	for r := 0; r < 60; r++ {
		churn = append(churn, 0, 0x60, byte(r), 0, 0x71, byte(r))
		if r%4 == 1 {
			churn = append(churn, 7, 0, byte(r))
		}
	}
	churn = append(churn, 5, 0, 0x60, 100, 7, 0, 100, 7, 0, 4, 7, 3, 1, 6, 0x60, 0x71)
	f.Add(churn)
	f.Fuzz(func(t *testing.T, data []byte) {
		const stripes, rows = 3, 64
		key := func(b byte) uint64 { return uint64(b>>4)*0x12345679<<32 | uint64(b&3) }
		at := func(b byte) posting { return posting{shard: int32(b % stripes), row: int32(b / stripes % rows)} }
		tab := newPostingTable(LSHParams{Bands: 1, RowsPerBand: 1}, stripes)
		shards := make([]*shard, stripes)
		for si := range shards {
			shards[si] = &shard{names: nameTable{ends: make([]uint32, rows)}} // 64 rows; the table reads no more
		}
		ref := map[uint64][]posting{}
		// reseal runs the table's reseal and the map's: a posting of a row
		// dead in gone (a compacted stripe's old dead set, whose other
		// rows move down past it) or in its stripe now drops.
		reseal := func(gone [][]uint64) {
			t.Helper()
			kept, ents := map[uint64][]posting{}, []uint64(nil)
			for k, es := range ref {
				for _, e := range es {
					dead, n := shards[e.shard].dead, e.row
					if gone[e.shard] != nil {
						dead = gone[e.shard]
						for r := range e.row {
							if bitSet(dead, r) {
								n--
							}
						}
					}
					if !bitSet(dead, e.row) {
						kept[k] = append(kept[k], posting{shard: e.shard, row: n})
						ents = append(ents, k&^math.MaxUint32|uint64(e.shard)<<6|uint64(n))
					}
				}
			}
			want := newPostingTable(tab.params, stripes)
			slices.Sort(ents)
			want.seal(ents, 6)
			tab.reseal(shards, gone)
			if err := sameSealed(tab, want); err != nil {
				t.Fatalf("resealed: %v", err)
			}
			ref = kept
		}
		for len(data) >= 3 || len(data) > 0 && data[0]%8 == 5 {
			switch op := data[0] % 8; {
			case op < 5:
				e := at(data[2])
				tab.insert(key(data[1]), e.shard, e.row)
				ref[key(data[1])] = append(ref[key(data[1])], e)
				data = data[3:]
			case op == 5:
				reseal(make([][]uint64, stripes))
				data = data[1:]
			case op == 7 && data[1]%4 == 3: // compact stripe data[2], then reseal
				gone, sh := make([][]uint64, stripes), shards[data[2]%stripes]
				gone[data[2]%stripes], sh.dead = sh.dead, nil
				reseal(gone)
				data = data[3:]
			case op == 7: // kill a row
				sh, row := shards[at(data[2]).shard], at(data[2]).row
				for len(sh.dead) <= int(row)>>6 {
					sh.dead = append(sh.dead, 0)
				}
				sh.dead[row>>6] |= 1 << uint(row&63)
				data = data[3:]
			default:
				keys := []uint64{key(data[1]), key(data[2])}
				scratch := make([]shardScratch, stripes)
				for si := range scratch {
					scratch[si].resetFor(rows)
				}
				total := tab.probe(keys, scratch)
				got := map[posting]bool{}
				for si, sc := range scratch {
					for _, row := range sc.cands {
						if e := (posting{shard: int32(si), row: row}); got[e] {
							t.Fatalf("probe %x: row %+v gathered twice", keys, e)
						} else {
							got[e] = true
						}
					}
				}
				if total != len(got) {
					t.Fatalf("probe %x returned %d, scratch holds %d", keys, total, len(got))
				}
				atMost := map[posting]bool{}
				for k, es := range ref {
					for _, e := range es {
						if (k == keys[0] || k == keys[1]) && !got[e] {
							t.Fatalf("probe %x missed %+v, filed under %x", keys, e, k)
						}
						if k>>32 == keys[0]>>32 || k>>32 == keys[1]>>32 {
							atMost[e] = true
						}
					}
				}
				for e := range got {
					if !atMost[e] {
						t.Fatalf("probe %x gathered %+v, filed under no key with either fingerprint", keys, e)
					}
				}
				data = data[3:]
			}
			if _, _, err := tab.checkLevels([]int{rows, rows, rows}); err != nil {
				t.Fatal(err)
			}
		}
	})
}
