package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// benchData returns n bytes of deterministic pseudo-random payload.
func benchData(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, n)
	for i := range data {
		data[i] = byte('a' + rng.Intn(26))
	}
	return data
}

// BenchmarkSketch measures sketch throughput across payload sizes, and
// over a mixed set — 64 documents log-uniform over 256 B to 16 KiB, the
// sizes bench/corpus.go draws — on one goroutine and on GOMAXPROCS.
func BenchmarkSketch(b *testing.B) {
	for _, size := range []int{1 << 10, 16 << 10, 256 << 10} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			s, err := NewSketcher(DefaultK, DefaultSignatureSize)
			if err != nil {
				b.Fatal(err)
			}
			rec := Record{Name: "bench", Data: benchData(size, 1)}
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Sketch(rec)
			}
		})
	}
	s, err := NewSketcher(DefaultK, DefaultSignatureSize)
	if err != nil {
		b.Fatal(err)
	}
	mixed, total := make([]Record, 64), 0
	for i := range mixed {
		_, u := math.Modf(float64(i+1) * 0.6180339887498949) // bench/corpus.go's docSize
		mixed[i] = Record{Name: "bench", Data: benchData(int(256*math.Pow(64, u)), int64(i+1))}
		total += len(mixed[i].Data)
	}
	sketchMixed := func(sig []uint64) {
		for _, rec := range mixed {
			s.SketchInto(sig, rec)
		}
	}
	b.Run("mixed", func(b *testing.B) {
		sig := make([]uint64, DefaultSignatureSize)
		b.SetBytes(int64(total))
		for b.Loop() {
			sketchMixed(sig)
		}
	})
	b.Run("mixed-parallel", func(b *testing.B) {
		b.SetBytes(int64(total))
		b.RunParallel(func(pb *testing.PB) {
			sig := make([]uint64, DefaultSignatureSize)
			for pb.Next() {
				sketchMixed(sig)
			}
		})
	})
}

func BenchmarkSimilarity(b *testing.B) {
	s, err := NewSketcher(DefaultK, DefaultSignatureSize)
	if err != nil {
		b.Fatal(err)
	}
	x := s.Sketch(Record{Name: "x", Data: benchData(4<<10, 2)})
	y := s.Sketch(Record{Name: "y", Data: benchData(4<<10, 3)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Similarity(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimilarityPacked measures the candidate pass's comparator,
// sigArena.rowMatches, over default-size signatures: one XOR/OR/popcount
// word op compares 64 slots.
func BenchmarkSimilarityPacked(b *testing.B) {
	s, err := NewSketcher(DefaultK, DefaultSignatureSize)
	if err != nil {
		b.Fatal(err)
	}
	x := s.Sketch(Record{Name: "x", Data: benchData(4<<10, 2)})
	y := s.Sketch(Record{Name: "y", Data: benchData(4<<10, 3)})
	q := make([]uint64, prefilterBits*sigWords(DefaultSignatureSize))
	packPlanes(q, 1, x.Signature)
	a := newSigArena(DefaultSignatureSize)
	a.appendSig(y.Signature)
	sink := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += a.rowMatches(0, q)
	}
	if sink < 0 {
		b.Fatal("impossible")
	}
}

// BenchmarkMatchCounts is the scan-kernel rung: ns per 128-slot row
// (64 B, every benchmark engine's shape) swept a chunk of sweepBlock rows
// at a time, on every kernel this CPU offers, at one shard of a 50 000-
// record index (3 125 rows: in cache) and at the whole 50 000-row arena
// (3.2 MB: beyond L2); at minSim 0.1 (every row reads all four planes),
// 0.3 (serve-exact-scan's floor) and 0.65 (83 slots, below every floor
// the candidates seed on the family corpus, which runs from 87 to 106:
// plane 0 rules out nearly every row). Rows are random, so their counts
// sit far below all three.
// bytes/row is the arena bytes a row takes, not what a kernel reads.
func BenchmarkMatchCounts(b *testing.B) {
	const slots = DefaultSignatureSize
	for _, n := range []int{3125, 50000} {
		rng := rand.New(rand.NewSource(int64(n)))
		a := newSigArena(slots)
		sig := make([]uint64, slots)
		for i := 0; i < n; i++ {
			for j := range sig {
				sig[j] = rng.Uint64()
			}
			a.appendSig(sig)
		}
		q := make([]uint64, prefilterBits*sigWords(slots))
		packPlanes(q, 1, sig)
		for _, minSim := range []float64{0.1, 0.3, 0.65} {
			minCount := minMatchedFor(minSim, slots)
			for _, kernel := range kernels() {
				b.Run(fmt.Sprintf("rows=%d/minSim=%v/%s", n, minSim, kernel), func(b *testing.B) {
					defer forceKernel(kernel)()
					var surv [sweepBlock]survivor
					for b.Loop() {
						for c, chunk := range a.chunks {
							matchSurvivors(surv[:min(sweepBlock, n-c*sweepBlock)], chunk, q, minCount)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/row")
					b.ReportMetric(float64(a.usedBytes())/float64(n), "bytes/row")
					b.ReportMetric(0, "ns/op")
				})
			}
		}
	}
}

// benchIndex builds an in-memory index of n 2 KiB records.
func benchIndex(b *testing.B, n int) (*Index, *Sketch) {
	b.Helper()
	eng := engineAt(b, "bench", false)
	s, ix := eng.Sketcher(), eng.Index()
	for i := 0; i < n; i++ {
		rec := Record{Name: fmt.Sprintf("rec-%d", i), Data: benchData(2<<10, int64(i+10))}
		if _, err := ix.Add(s.Sketch(rec)); err != nil {
			b.Fatal(err)
		}
	}
	return ix, s.Sketch(Record{Name: "query", Data: benchData(2<<10, 10)})
}

// benchTieredIndex builds the shape every BENCHMARK.json engine has —
// a directory-backed index — over n records.
func benchTieredIndex(b *testing.B, n int) (*Index, *Sketch) {
	b.Helper()
	eng := engineAt(b, "bench", true)
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Name: fmt.Sprintf("rec-%d", i), Data: benchData(256, int64(i+10))}
	}
	if _, err := eng.AddBatch(recs); err != nil {
		b.Fatal(err)
	}
	if err := eng.Index().SaveDir(); err != nil {
		b.Fatal(err)
	}
	return eng.Index(), eng.Sketcher().Sketch(Record{Name: "query", Data: benchData(256, 10)})
}

// tierMark is the tier counters at the start of a timed loop, so a
// benchmark can report what its searches spent per op.
type tierMark struct{ survived, rescored uint64 }

func markTier(ix *Index) tierMark {
	return tierMark{ix.tier.survived.Load(), ix.tier.rescored.Load()}
}

// report adds survived/op (rows past the prefilter) and rescored/op (rows
// read at full width) since the mark. Call it after the loop:
// ResetTimer deletes user-reported metrics.
func (m tierMark) report(b *testing.B, ix *Index) {
	n := float64(b.N)
	b.ReportMetric(float64(ix.tier.survived.Load()-m.survived)/n, "survived/op")
	b.ReportMetric(float64(ix.tier.rescored.Load()-m.rescored)/n, "rescored/op")
}

// BenchmarkSearchTopK is the exact-search rung: small in-memory corpora
// at minSim 0 (every row is a result), and the serve-exact-scan shape —
// 50 000 rows in a directory — at that workload's minSim 0.3, where the
// prefilter sweep is nearly all of the search, and at 0.1 and 0, where
// the prefilter lets more rows through to the full-width rescore. Each
// reports the survivors and rescores a search spent.
func BenchmarkSearchTopK(b *testing.B) {
	for _, c := range []struct {
		name    string
		n       int
		tiered  bool
		minSims []float64
	}{
		{"n=100", 100, false, []float64{0}},
		{"n=1000", 1000, false, []float64{0}},
		{"n=50000/tiered", 50000, true, []float64{0.3, 0.1, 0}},
	} {
		// The corpus is built inside the group, so a -bench filter that
		// excludes a case does not pay for its index.
		b.Run(c.name, func(b *testing.B) {
			var ix *Index
			var q *Sketch
			if c.tiered {
				ix, q = benchTieredIndex(b, c.n)
			} else {
				ix, q = benchIndex(b, c.n)
			}
			for _, minSim := range c.minSims {
				b.Run(fmt.Sprintf("minSim=%v", minSim), func(b *testing.B) {
					b.ResetTimer()
					mark := markTier(ix)
					for i := 0; i < b.N; i++ {
						if _, err := search(ix, q, ModeExact, 10, minSim); err != nil {
							b.Fatal(err)
						}
					}
					mark.report(b, ix)
					b.ReportMetric(ix.Arena().BytesPerRecord, "bytes/rec")
				})
			}
		})
	}
}

// BenchmarkPackedStore measures the arena scan on a 1000-record corpus
// at minSim 0, where every row survives the prefilter, and at 0.1 and
// 0.3, and reports the rows each search rescored at full width and the
// per-record prefilter footprint alongside ns/op, so a run shows memory
// regressions too.
func BenchmarkPackedStore(b *testing.B) {
	ix, q := benchIndex(b, 1000)
	for _, minSim := range []float64{0, 0.1, 0.3} {
		b.Run(fmt.Sprintf("minSim=%v", minSim), func(b *testing.B) {
			b.ResetTimer()
			mark := markTier(ix)
			for i := 0; i < b.N; i++ {
				if _, err := search(ix, q, ModeExact, 10, minSim); err != nil {
					b.Fatal(err)
				}
			}
			mark.report(b, ix)
			b.ReportMetric(ix.Arena().BytesPerRecord, "bytes/rec")
		})
	}
}

// lshBench caches the 10k-record corpus shared by BenchmarkSearchExact
// and BenchmarkSearchLSH; building it sketches 10k records, so it is
// done once per test binary.
var lshBench struct {
	once sync.Once
	ix   *Index
	q    *Sketch
}

func lshBenchCorpus(b *testing.B) (*Index, *Sketch) {
	b.Helper()
	lshBench.once.Do(func() {
		// 10k records, 50 of them near-duplicates of the query: enough
		// true neighbors to fill topK=10 from candidates alone.
		lshBench.ix, lshBench.q = plantedCorpus(b, 10000, 50, 7)
	})
	return lshBench.ix, lshBench.q
}

// BenchmarkSearchExact is the brute-force baseline on the 10k corpus:
// cost scales with corpus size.
func BenchmarkSearchExact(b *testing.B) {
	ix, q := lshBenchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search(ix, q, ModeExact, 10, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// familyMember returns member m of near-duplicate family f: the family's
// 512 bytes with 1% of them changed.
func familyMember(f, m int) []byte {
	data := benchData(512, int64(f+1))
	rng := rand.New(rand.NewSource(int64(f*100 + m)))
	for j := 0; j < len(data)/100; j++ {
		data[rng.Intn(len(data))] = byte('a' + rng.Intn(26))
	}
	return data
}

// familyCorpus builds the serve-lsh-hit workload's engine shape: families
// of 20 near-duplicates, 16 stripes, a directory index, saved.
func familyCorpus(tb testing.TB, families int) *Engine {
	tb.Helper()
	eng := engineAt(tb, "bench", true)
	recs := make([]Record, 20)
	for f := 0; f < families; f++ {
		for m := range recs {
			recs[m] = Record{Name: fmt.Sprintf("f%d-m%d", f, m), Data: familyMember(f, m)}
		}
		if _, err := eng.AddBatch(recs); err != nil {
			tb.Fatal(err)
		}
	}
	if err := eng.Index().SaveDir(); err != nil {
		tb.Fatal(err)
	}
	return eng
}

// serveLSHHitCorpus is the serve-lsh-hit workload's engine — 50 000 rows
// — and 256 hit queries, each a fresh mutation of a different family.
func serveLSHHitCorpus(b *testing.B) (*Index, []*Sketch) {
	b.Helper()
	const families = 2500
	eng := familyCorpus(b, families)
	queries := make([]*Sketch, 256)
	for i := range queries {
		queries[i] = eng.Sketcher().Sketch(Record{Name: "query", Data: familyMember(i*(families/len(queries)), -1)})
	}
	return eng.Index(), queries
}

// meanCandidates is the mean number of rows the posting-table probe
// alone names for each query: band-key collisions, before the prefilter.
func meanCandidates(ix *Index, queries []*Sketch) float64 {
	buf := getSearchBuf()
	defer putSearchBuf(buf)
	total := 0
	for _, query := range queries {
		q := buf.prepare(query, 0, len(ix.shards))
		buf.prepareBandKeys(ix, query)
		total += probeCandidates(ix.posts, ix.shards, q, buf.scratch)
	}
	return float64(total) / float64(len(queries))
}

// BenchmarkSearchLSH probes band buckets and exact-scores only the
// candidates; cost scales with the number of plausible matches. The
// planted case is the 10k in-memory corpus and one hot query. The
// serve-lsh-hit case is that workload's engine at topK 10, minSim 0.3,
// rotating over its 256 queries so the posting table is as cold as it
// is under load, banded as the workload is (32 x 4) and reopened at
// 64 x 2, the shape where unrelated rows share a band key most often;
// the exact case runs the same queries as a sweep, the cost LSH mode
// must stay under. It reports lookups/op — the keys handed to a search's one
// postingTable.probe pass, each a single find; it must read Bands, not
// Bands x shards — candidates/op, the rows that probe names, and B/rec,
// the table's bytes per record.
func BenchmarkSearchLSH(b *testing.B) {
	b.Run("planted", func(b *testing.B) {
		ix, q := lshBenchCorpus(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := search(ix, q, ModeLSH, 10, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	ix, queries := serveLSHHitCorpus(b)
	b.Run("serve-lsh-hit/exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if res, err := search(ix, queries[i%len(queries)], ModeExact, 10, 0.3); err != nil || len(res) != 10 {
				b.Fatalf("search returned %d results, err %v", len(res), err)
			}
		}
	})
	for _, lsh := range []LSHParams{{Bands: 32, RowsPerBand: 4}, {Bands: 64, RowsPerBand: 2}} {
		ix, name := ix, "serve-lsh-hit"
		if lsh != ix.LSHParams() {
			var err error
			if ix, err = OpenWith(ix.DataDir(), lsh); err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { ix.Close() })
			name = fmt.Sprintf("serve-lsh-hit/bands=%dx%d", lsh.Bands, lsh.RowsPerBand)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := search(ix, queries[i%len(queries)], ModeLSH, 10, 0.3)
				if err != nil || len(res) != 10 {
					b.Fatalf("search returned %d results, err %v", len(res), err)
				}
			}
			buf := getSearchBuf()
			defer putSearchBuf(buf)
			buf.prepareBandKeys(ix, queries[0])
			b.ReportMetric(float64(len(buf.q.bandKeys)), "lookups/op")
			b.ReportMetric(meanCandidates(ix, queries), "candidates/op")
			bytes, _, _, _ := ix.posts.size()
			b.ReportMetric(float64(bytes)/float64(ix.Len()), "B/rec")
		})
	}
}

// BenchmarkPostingRebuild times the table's one build path — Open
// (under any banding), compaction and a due reseal all end in it — and reports the
// bytes per record of what it built: over the serve-lsh-hit corpus, whose
// families share buckets, and over 50 000 random rows that share none,
// a bucket to every posting, the table's worst case.
func BenchmarkPostingRebuild(b *testing.B) {
	for _, c := range []struct {
		name  string
		index func(b *testing.B) *Index
	}{
		{"serve-lsh-hit", func(b *testing.B) *Index { ix, _ := serveLSHHitCorpus(b); return ix }},
		{"unrelated", func(b *testing.B) *Index { return randomRowsIndex(b, 50000) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			ix := c.index(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.posts.rebuild(ix.posts.params, ix.shards)
			}
			bytes, _, _, _ := ix.posts.size()
			b.ReportMetric(float64(bytes)/float64(ix.Len()), "B/rec")
		})
	}
}

// randomRowsIndex is an in-memory index of n rows with random signatures
// under the default banding, so no two rows share a band bucket.
func randomRowsIndex(b *testing.B, n int) *Index {
	b.Helper()
	ix := NewIndex("unrelated", DefaultK, DefaultSignatureSize)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		sig := make([]uint64, DefaultSignatureSize)
		for j := range sig {
			sig[j] = rng.Uint64()
		}
		if ok, err := ix.Add(&Sketch{Name: fmt.Sprintf("rec-%d", i), K: DefaultK, Shingles: 100, Signature: sig}); !ok || err != nil {
			b.Fatalf("add: ok=%v err=%v", ok, err)
		}
	}
	return ix
}

// BenchmarkAddBatchParallel is the guard on the posting table's one
// lock: GOMAXPROCS goroutines add 20 000 ready-made sketches to one
// fresh 16-stripe index per iteration, so nothing but the shard insert
// and the table insert is timed.
func BenchmarkAddBatchParallel(b *testing.B) {
	const n = 20000
	rng := rand.New(rand.NewSource(1))
	sketches := make([]*Sketch, n)
	for i := range sketches {
		sig := make([]uint64, DefaultSignatureSize)
		for j := range sig {
			sig[j] = rng.Uint64()
		}
		sketches[i] = &Sketch{Name: fmt.Sprintf("rec-%d", i), K: DefaultK, Shingles: 100, Signature: sig}
	}
	workers := runtime.GOMAXPROCS(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := NewIndexWith("bench", DefaultK, DefaultSignatureSize,
			DefaultLSHParams(DefaultSignatureSize), DefaultShards)
		if err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for j := w; j < n; j += workers {
					if ok, err := ix.Add(sketches[j]); !ok || err != nil {
						b.Errorf("add: ok=%v err=%v", ok, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rec/s")
}

func BenchmarkPairwiseDistances(b *testing.B) {
	s, err := NewSketcher(DefaultK, DefaultSignatureSize)
	if err != nil {
		b.Fatal(err)
	}
	const n = 64
	sketches := make([]*Sketch, n)
	for i := range sketches {
		sketches[i] = s.Sketch(Record{Name: fmt.Sprintf("s%d", i), Data: benchData(2<<10, int64(i+100))})
	}
	for _, threads := range []int{1, 0} {
		name := fmt.Sprintf("threads=%d", threads)
		if threads == 0 {
			name = "threads=max"
		}
		b.Run(name, func(b *testing.B) {
			pool := NewPool(threads)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := PairwiseDistances(sketches, pool); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDurableIngest measures the acked-add path on a WAL-attached
// tiered index: sketch, shard insert, WAL append, and the group-commit
// fsync that makes the ack durable. It reports ingest_ack_ns (wall
// time per acknowledged add) and wal_fsync_ns (mean fsync batch
// latency) so a run shows the durability tax separately from pure
// in-memory ingest.
func BenchmarkDurableIngest(b *testing.B) {
	dir := b.TempDir()
	eng, err := NewEngine(Options{
		IndexName: "bench-wal",
		Tiered:    true, DataDir: dir, SegmentRows: 256,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Index().Close()
	// The first SaveDir commits the manifest and attaches the WALs;
	// without it, adds would be RAM-only and measure nothing durable.
	if err := eng.Index().SaveDir(); err != nil {
		b.Fatal(err)
	}
	data := benchData(2<<10, 42)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := addRecord(eng, Record{Name: fmt.Sprintf("rec-%d", i), Data: data}); err != nil {
			b.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N), "ingest_ack_ns")
	if ws := eng.Index().WAL(); ws != nil && ws.Fsyncs > 0 {
		b.ReportMetric(float64(ws.FsyncNanos)/float64(ws.Fsyncs), "wal_fsync_ns")
	}
}
