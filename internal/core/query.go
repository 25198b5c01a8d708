package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
)

// SearchMode selects how Index.Search scans the index.
type SearchMode string

const (
	// ModeExact returns what scoring the query against every indexed
	// sketch would: the LSH candidates first, then every other row
	// against the floor they set.
	ModeExact SearchMode = "exact"
	// ModeLSH probes LSH band buckets for candidates and exact-scores
	// only those, falling back to the rows not probed when the candidate
	// set cannot fill the requested K.
	ModeLSH SearchMode = "lsh"
)

// ParseSearchMode maps a request's or the CLI's mode string onto a
// SearchMode. The empty string selects ModeLSH, the default.
func ParseSearchMode(s string) (SearchMode, error) {
	switch SearchMode(s) {
	case "":
		return ModeLSH, nil
	case ModeExact, ModeLSH:
		return SearchMode(s), nil
	default:
		return "", fmt.Errorf("search: unknown mode %q (want %q or %q)", s, ModeLSH, ModeExact)
	}
}

// packedQuery is one query sketch prepared for arena scans: the
// signature packed to the arena's bit planes for word-parallel row
// comparisons, plus its band bucket keys, one posting-table lookup each.
type packedQuery struct {
	name     string
	shingles int
	slots    int
	// minMatched is the caller's similarity floor as a matched-slot
	// count (see minMatchedFor), raised in ModeExact to the K-th best
	// candidate's count before the sweep; every floor decision compares
	// a count against it.
	minMatched int
	// pad is how many padding bits each packed plane carries past slots.
	// A nibble count includes them (they are zero on both sides, so they
	// always match), and prefilter takes them back off; every count is at
	// least pad, so a floor of 0 keeps every row.
	pad      int
	packed   []uint64  // the arena's planes, column c at packed[c]
	full     []uint64  // full-width signature: the rescore image
	bandKeys []uint64  // one bucket key per band
	cancel   *canceler // non-nil on ctx-aware searches; scan loops poll it
}

// minMatchedFor turns a similarity floor into a matched-slot count: the
// smallest m in [0, slots] with float64(m)/float64(slots) >= minSim, or
// slots+1 when no count reaches it. The quotient is monotone in m, so
// "m >= minMatchedFor(minSim, slots)" decides exactly what the float
// comparison decides for every m — the guess ceil(minSim*slots) is
// stepped down and up with that very expression, so a floor equal to
// some m/slots, or one ulp either side, keeps the rows it always did.
func minMatchedFor(minSim float64, slots int) int {
	keep := func(m int) bool { return float64(m)/float64(slots) >= minSim }
	if !keep(slots) {
		return slots + 1
	}
	m := 0
	if x := math.Ceil(minSim * float64(slots)); x > 0 {
		m = min(int(x), slots) // minSim <= 1 here, so x is small
	}
	for m > 0 && keep(m-1) {
		m--
	}
	for !keep(m) {
		m++
	}
	return m
}

// cancelCheckEvery is how many rows a candidate-list loop scores
// between cancellation polls (a sweep polls once per sweepBlock). The
// stride only has to amortize the ctx.Err() call.
const cancelCheckEvery = 1024

// canceler adapts a context for polling from the scan hot loops: the
// first poll to observe ctx expiry latches stop, and every later loop
// sees the latch instead of re-deriving ctx.Err(). A search runs on one
// goroutine, so the latch is a plain field.
type canceler struct {
	ctx  context.Context
	stop bool
}

// newCanceler returns nil for contexts that can never fire, keeping the
// background-search path free of polling entirely.
func newCanceler(ctx context.Context) *canceler {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return &canceler{ctx: ctx}
}

// canceled polls the context. Safe on a nil receiver (never canceled).
func (c *canceler) canceled() bool {
	if c == nil {
		return false
	}
	if !c.stop && c.ctx.Err() != nil {
		c.stop = true
	}
	return c.stop
}

// err returns the context error once a scan aborted, nil otherwise.
func (c *canceler) err() error {
	if c == nil || !c.stop {
		return nil
	}
	return c.ctx.Err()
}

// scoredCand is one prefilter survivor: a shard-local row index and its
// packed matched-slot count, which upper-bounds the full-width count and
// is the rescore's bound.
type scoredCand struct {
	idx     int32
	matched int32
}

// shardScratch is the per-shard scratch of one query: the candidate
// bitset and index list filled by the LSH probe, the prefilter survivor
// list plus the pread-path row decode buffer, and the full-width
// rescores both passes spent, which the tier budget caps.
type shardScratch struct {
	rows     int32    // the shard's row count when the probe began
	candSet  []uint64 // bitset over shard-local record indexes [0, rows)
	cands    []int32
	scored   []scoredCand
	rsc      rowScratch
	rescored int
}

// offer files row as a probe candidate unless it was appended after the
// scratch's snapshot or is filed already; it returns how many it filed.
func (sc *shardScratch) offer(row int32) int {
	if row >= sc.rows || bitSet(sc.candSet, row) {
		return 0
	}
	sc.candSet[row>>6] |= 1 << uint(row&63)
	sc.cands = append(sc.cands, row)
	return 1
}

// resetFor clears the scratch for a shard currently holding n records.
func (sc *shardScratch) resetFor(n int) {
	sc.rows = int32(n)
	words := (n + 63) >> 6
	if cap(sc.candSet) < words {
		sc.candSet = make([]uint64, words)
	} else {
		sc.candSet = sc.candSet[:words]
		clear(sc.candSet)
	}
	sc.cands = sc.cands[:0]
	sc.rescored = 0
}

// searchBuf holds the scratch state of one top-K search: the packed
// query image, per-shard scratch, and merged, the search's one bounded
// top-K heap, which every stripe's rescore in both passes feeds.
// Buffers are pooled and reused across searches, so a steady-state
// search allocates only the result slice it returns and the names of
// the rows that enter the heap.
type searchBuf struct {
	q       packedQuery
	packed  []uint64
	keys    []uint64
	merged  []Result
	scratch []shardScratch
}

var searchBufPool = sync.Pool{New: func() any { return new(searchBuf) }}

func getSearchBuf() *searchBuf { return searchBufPool.Get().(*searchBuf) }

func putSearchBuf(b *searchBuf) {
	b.q = packedQuery{}
	b.keys = b.keys[:0]
	b.merged = b.merged[:0]
	searchBufPool.Put(b)
}

// prepare packs the query to the arena's planes, derives the integer form
// of minSim and the padding bit count, and sizes the per-shard scratch.
// A sketch is always full width, so its signature doubles as the rescore
// image.
func (b *searchBuf) prepare(query *Sketch, minSim float64, shards int) *packedQuery {
	b.merged = b.merged[:0]
	w := sigWords(len(query.Signature))
	b.packed = slices.Grow(b.packed[:0], prefilterBits*w)[:prefilterBits*w]
	packPlanes(b.packed, 1, query.Signature)
	b.q = packedQuery{
		name:       query.Name,
		shingles:   query.Shingles,
		slots:      len(query.Signature),
		minMatched: minMatchedFor(minSim, len(query.Signature)),
		pad:        64*w - len(query.Signature),
		packed:     b.packed,
		full:       query.Signature,
	}
	if cap(b.scratch) < shards {
		grown := make([]shardScratch, shards)
		copy(grown, b.scratch)
		b.scratch = grown
	} else {
		b.scratch = b.scratch[:shards]
	}
	return &b.q
}

// prepareBandKeys precomputes the query's bucket key for every band,
// from the full-width signature, as the shards' keys were at add time.
func (b *searchBuf) prepareBandKeys(ix *Index, query *Sketch) {
	lsh := ix.LSHParams()
	b.keys = b.keys[:0]
	for band := 0; band < lsh.Bands; band++ {
		b.keys = append(b.keys, lsh.bandKey(band, query.Signature))
	}
	b.q.bandKeys = b.keys
}

// probeCandidates gathers, into each shard's scratch, the rows sharing
// at least one LSH band bucket with the query, and returns how many:
// every stripe's row count is snapshotted first, then the posting table
// is read in one pass of len(q.bandKeys) lookups — always inline.
func probeCandidates(posts *postingTable, shards []*shard, q *packedQuery, scratch []shardScratch) int {
	for si, sh := range shards {
		sh.beginProbe(&scratch[si])
	}
	return posts.probe(q.bandKeys, scratch)
}

// PairwiseDistances computes all n*(n-1)/2 distinct pairwise
// comparisons among sketches, fanning out over pool. Results are sorted
// by descending similarity (ties broken by name) for stable output.
func PairwiseDistances(sketches []*Sketch, pool *Pool) ([]Result, error) {
	n := len(sketches)
	if n < 2 {
		return nil, nil
	}
	for i := 1; i < n; i++ {
		if err := compatible(sketches[0], sketches[i]); err != nil {
			return nil, err
		}
	}
	results := make([]Result, n*(n-1)/2)
	if pool == nil {
		pool = NewPool(0)
	}
	// Workers pull contiguous row ranges of the upper triangle, each
	// range owning a contiguous result span, so no O(n^2) pair list is
	// materialized. Row i holds n-1-i pairs, so equal row counts would
	// give wildly uneven work; ranges are instead balanced by pair
	// count, ~4 per worker, which bounds scheduling overhead while
	// keeping the tail ranges from starving.
	type rowRange struct{ lo, hi int }
	total := n * (n - 1) / 2
	chunks := 4 * pool.Workers()
	if chunks > n-1 {
		chunks = n - 1
	}
	target := (total + chunks - 1) / chunks
	ranges := make([]rowRange, 0, chunks)
	lo, acc := 0, 0
	for i := 0; i < n-1; i++ {
		acc += n - 1 - i
		if acc >= target || i == n-2 {
			ranges = append(ranges, rowRange{lo, i + 1})
			lo, acc = i+1, 0
		}
	}
	pool.Map(len(ranges), func(ci int) {
		for i := ranges[ci].lo; i < ranges[ci].hi; i++ {
			a := sketches[i]
			base := i * (2*n - i - 1) / 2
			for j := i + 1; j < n; j++ {
				b := sketches[j]
				sim, _ := Similarity(a, b) // compatibility pre-checked above
				results[base+j-i-1] = Result{Query: a.Name, Ref: b.Name, Similarity: sim, Distance: 1 - sim}
			}
		}
	})
	slices.SortFunc(results, compareResults)
	return results, nil
}

// Query is one search's parameters: the scan mode (empty means
// ModeLSH), the most results to return, and the similarity floor.
type Query struct {
	Mode   SearchMode
	TopK   int
	MinSim float64
}

// Search returns up to q.TopK entries of ix with similarity >= q.MinSim
// to sk, best first. An index record that is the query itself — same
// name AND same signature — is skipped so self-hits do not crowd out
// real neighbors; a same-named record with different content (e.g. the
// file changed after indexing) is still reported.
//
// Every search is one pipeline. Each stripe's row count is snapshotted;
// the query's band keys then probe the posting table, and the rows they
// find are scored first. Both passes cut rows through one prefilter step
// against q.MinSim as a matched-slot count. The complement sweep scores
// every row the probe did not find, so no record is scored twice.
//
// ModeExact always sweeps. When the candidates fill q.TopK, it first
// raises the floor to the K-th best candidate's matched count: a row
// below it cannot enter the top K, and the floor is inclusive, because a
// row tied with the K-th best may still win on name order. So the answer
// is the exact scan's, while most rows fall short on the prefilter's
// first plane.
//
// ModeLSH sweeps only when the candidates cannot fill q.TopK — too few
// live candidates, a filtered self-hit, rows below the floor — so small
// or sparse indexes answer exactly as an exact scan, and cost otherwise
// scales with the number of plausible matches rather than the corpus
// size. When the candidates do fill K, completeness is probabilistic:
// pairs with similarity well above ix.LSHParams().Threshold() are
// candidates almost surely, pairs well below it are skipped by design.
//
// The search holds ix.writeMu shared from the snapshot to the last pass,
// so no compaction or reseal renumbers a stripe or swaps its postings
// in between; adds and deletes still land meanwhile. Both passes score
// the stripes one after another on the caller's goroutine, into one
// top-K heap: one search uses one core, and a serving node's cores go to
// concurrent requests. The scan loops poll ctx every sweepBlock rows, and
// the search returns ctx's error instead of a partial result set when it
// fires; a background context costs nothing extra. Scratch state comes
// from a pool, so steady-state calls allocate only the returned slice
// and the names of the rows that enter the heap.
func (ix *Index) Search(ctx context.Context, sk *Sketch, q Query) ([]Result, error) {
	mode, err := ParseSearchMode(string(q.Mode))
	if err != nil {
		return nil, err
	}
	if err := checkSearchArgs(ix, sk, q.TopK, q.MinSim); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ix.writeMu.RLock()
	defer ix.writeMu.RUnlock()
	buf := getSearchBuf()
	defer putSearchBuf(buf)
	shards := ix.shards
	pq := buf.prepare(sk, q.MinSim, len(shards))
	pq.cancel = newCanceler(ctx)
	buf.prepareBandKeys(ix, sk)
	probed := probeCandidates(ix.posts, shards, pq, buf.scratch)
	merged := buf.merged
	if probed > 0 {
		for si, sh := range shards {
			merged = sh.scoreCandidates(merged, pq, q.TopK, &buf.scratch[si])
		}
	}
	if (mode == ModeExact || len(merged) < q.TopK) && !pq.cancel.canceled() {
		if len(merged) == q.TopK {
			// Seed the floor: merged is a min-heap of the best K
			// candidates, so merged[0] is the K-th best.
			pq.minMatched = max(pq.minMatched, minMatchedFor(merged[0].Similarity, pq.slots))
		}
		// The complement: every row the candidate pass skipped (each
		// shard's bitset marks its probed rows). It runs even when there
		// are as many candidates as live records: the candidates may
		// include tombstoned rows, whose postings stay until the next
		// rebuild.
		for si, sh := range shards {
			merged = sh.sweep(merged, pq, q.TopK, &buf.scratch[si])
		}
	}
	buf.merged = merged
	if err := pq.cancel.err(); err != nil {
		return nil, err
	}
	return MergeTopK(merged, q.TopK), nil
}

// SearchTopK is Index.Search in ModeExact under a background context.
// It stays only because bench/ compiles against it; pool is ignored.
func SearchTopK(ix *Index, query *Sketch, topK int, minSim float64, _ *Pool) ([]Result, error) {
	return ix.Search(context.Background(), query, Query{Mode: ModeExact, TopK: topK, MinSim: minSim})
}

// SearchTopKCtx is Index.Search in ModeExact. It stays only because
// bench/ compiles against it, as the same type as SearchTopKLSHCtx;
// pool is ignored.
func SearchTopKCtx(ctx context.Context, ix *Index, query *Sketch, topK int, minSim float64, _ *Pool) ([]Result, error) {
	return ix.Search(ctx, query, Query{Mode: ModeExact, TopK: topK, MinSim: minSim})
}

// SearchTopKLSHCtx is Index.Search in ModeLSH. It stays only because
// bench/ compiles against it, as the same type as SearchTopKCtx; pool
// is ignored.
func SearchTopKLSHCtx(ctx context.Context, ix *Index, query *Sketch, topK int, minSim float64, _ *Pool) ([]Result, error) {
	return ix.Search(ctx, query, Query{Mode: ModeLSH, TopK: topK, MinSim: minSim})
}

func checkSearchArgs(ix *Index, query *Sketch, topK int, minSim float64) error {
	if topK <= 0 {
		return fmt.Errorf("search: topK must be positive, got %d", topK)
	}
	if math.IsNaN(minSim) {
		return fmt.Errorf("search: minimum similarity is NaN")
	}
	meta := ix.Metadata()
	if meta.SignatureSize <= 0 {
		return fmt.Errorf("search: index %q has no signature slots", meta.Name)
	}
	if query.K != meta.K || len(query.Signature) != meta.SignatureSize {
		return fmt.Errorf("search: query sketch (k=%d, size=%d) incompatible with index %q (k=%d, size=%d)",
			query.K, len(query.Signature), meta.Name, meta.K, meta.SignatureSize)
	}
	return nil
}

// MergeTopK reduces results (which may alias a pooled or shared
// buffer) to its topK best-ranked entries, sorts them, and copies them
// out so the input backing array never escapes to the caller. The
// bounded-heap selection runs in O(n log k) and sorts only the K
// survivors, so a full-corpus scan never pays an O(n log n) sort for a
// top-10 answer. The ranking is resultBetter's total order (descending
// similarity, ties by query then ref), the same order a search's heap
// uses — which is what makes the cluster coordinator's merge of
// concatenated per-backend top-Ks exact: the global top-K is always
// contained in the union of bounded local top-Ks.
// Empty inputs and topK <= 0 return nil.
func MergeTopK(results []Result, topK int) []Result {
	if len(results) == 0 || topK <= 0 {
		return nil
	}
	if len(results) > topK {
		selectTopK(results, topK)
		results = results[:topK]
	}
	slices.SortFunc(results, compareResults)
	out := make([]Result, len(results))
	copy(out, results)
	return out
}

// compareResults is the one result order: descending similarity, ties
// broken by query then ref name, so output is deterministic. Heap
// selection (resultBetter) and every final sort use it, so selecting
// then sorting the survivors returns exactly what sorting everything
// would have.
func compareResults(a, b Result) int {
	switch {
	case a.Similarity > b.Similarity:
		return -1
	case a.Similarity < b.Similarity:
		return 1
	}
	if c := strings.Compare(a.Query, b.Query); c != 0 {
		return c
	}
	return strings.Compare(a.Ref, b.Ref)
}

// resultBetter reports whether a ranks strictly before b.
func resultBetter(a, b Result) bool { return compareResults(a, b) < 0 }

// selectTopK partitions rs in place so its first k elements are the k
// best-ranked results (in unspecified order). rs[:k] is kept as a
// min-heap whose root is the worst retained result; every later element
// that beats the root replaces it.
func selectTopK(rs []Result, k int) {
	h := rs[:k]
	for i := k/2 - 1; i >= 0; i-- {
		siftWorstDown(h, i)
	}
	for i := k; i < len(rs); i++ {
		if resultBetter(rs[i], h[0]) {
			h[0], rs[i] = rs[i], h[0]
			siftWorstDown(h, 0)
		}
	}
}

// siftWorstDown restores the "parent is no better than its children"
// invariant from index i downward, keeping the worst retained result at
// the root.
func siftWorstDown(h []Result, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		w := l
		if r := l + 1; r < len(h) && resultBetter(h[l], h[r]) {
			w = r
		}
		if !resultBetter(h[i], h[w]) {
			return
		}
		h[i], h[w] = h[w], h[i]
		i = w
	}
}
