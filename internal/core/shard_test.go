package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// plantedCorpus builds an in-memory index of plantedRecords(n,
// planted, seed) through Engine.AddBatch and returns it with the sketch
// of the records' base payload, named "query".
func plantedCorpus(tb testing.TB, n, planted int, seed int64) (*Index, *Sketch) {
	tb.Helper()
	eng, err := NewEngine(Options{IndexName: "planted"})
	if err != nil {
		tb.Fatal(err)
	}
	recs, base := plantedRecords(n, planted, seed)
	oks, err := eng.AddBatch(recs)
	if err != nil {
		tb.Fatal(err)
	}
	if added := countAdded(oks); added != n {
		tb.Fatalf("AddBatch added %d, want %d", added, n)
	}
	return eng.Index(), eng.Sketcher().Sketch(Record{Name: "query", Data: base})
}

func TestShardFor(t *testing.T) {
	const shards = 16
	hit := make([]int, shards)
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("record-%d", i)
		s := shardFor(name, shards)
		if s < 0 || s >= shards {
			t.Fatalf("shardFor(%q, %d) = %d, out of range", name, shards, s)
		}
		if s != shardFor(name, shards) {
			t.Fatalf("shardFor(%q) is not deterministic", name)
		}
		hit[s]++
	}
	for i, n := range hit {
		if n == 0 {
			t.Errorf("shard %d received no records out of 1000; striping is degenerate", i)
		}
	}
}

// TestShardedConcurrentAddBatchSearch hammers a sharded index with
// concurrent AddBatch writers and LSH/exact readers; it exists to run
// under -race.
func TestShardedConcurrentAddBatchSearch(t *testing.T) {
	eng, err := NewEngine(Options{Threads: 4, Shards: 8, IndexName: "conc"})
	if err != nil {
		t.Fatal(err)
	}
	query := Record{Name: "query", Data: []byte("the query payload shared by all concurrent readers here")}

	const writers, readers, perBatch, batches = 4, 4, 25, 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				recs := make([]Record, perBatch)
				for i := range recs {
					recs[i] = Record{
						Name: fmt.Sprintf("w%d-b%d-rec%d", w, b, i),
						Data: []byte(fmt.Sprintf("record payload %d/%d from writer %d with extra text", b, i, w)),
					}
				}
				if _, err := eng.AddBatch(recs); err != nil {
					t.Errorf("AddBatch: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := eng.Search(context.Background(), query, Query{TopK: 3}); err != nil {
					t.Errorf("lsh search: %v", err)
					return
				}
				q := eng.Sketcher().Sketch(query)
				if _, err := search(eng.Index(), q, ModeExact, 3, 0); err != nil {
					t.Errorf("exact search: %v", err)
					return
				}
				eng.Index().Len()
				eng.Index().Metadata()
				eng.Index().Records("", 16)
			}
		}(r)
	}
	wg.Wait()
	if got, want := eng.Index().Len(), writers*batches*perBatch; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	if got := eng.Index().Metadata().RecordCount; got != writers*batches*perBatch {
		t.Fatalf("RecordCount = %d, want %d", got, writers*batches*perBatch)
	}
}

func TestEngineAddBatch(t *testing.T) {
	eng, err := NewEngine(Options{K: 4, SignatureSize: 32, IndexName: "batch"})
	if err != nil {
		t.Fatal(err)
	}
	if oks, err := eng.AddBatch(nil); countAdded(oks) != 0 || err != nil {
		t.Fatalf("empty AddBatch added %d, %v; want 0, nil", countAdded(oks), err)
	}
	recs := []Record{
		{Name: "a", Data: []byte("first record payload with enough bytes")},
		{Name: "b", Data: []byte("second record payload, different text")},
		{Name: "c", Data: []byte("third record payload, different again")},
	}
	if oks, err := eng.AddBatch(recs); countAdded(oks) != 3 || err != nil {
		t.Fatalf("AddBatch added %d, %v; want 3, nil", countAdded(oks), err)
	}
	// Re-adding the same batch plus one new record adds only the new one.
	recs = append(recs, Record{Name: "d", Data: []byte("a fourth, fresh record payload here")})
	if oks, err := eng.AddBatch(recs); countAdded(oks) != 1 || err != nil {
		t.Fatalf("duplicate AddBatch added %d, %v; want 1, nil", countAdded(oks), err)
	}
	if eng.Index().Len() != 4 {
		t.Fatalf("Len = %d, want 4", eng.Index().Len())
	}
	// A record with an empty name surfaces the index's validation error.
	if _, err := eng.AddBatch([]Record{{Name: "", Data: []byte("nameless")}}); err == nil {
		t.Fatal("AddBatch with empty name: want error")
	}
	// In-batch repeats: the first occurrence wins deterministically.
	dup := []Record{
		{Name: "e", Data: []byte("the first occurrence of record e wins")},
		{Name: "e", Data: []byte("the second occurrence must be dropped")},
	}
	if oks, err := eng.AddBatch(dup); countAdded(oks) != 1 || err != nil {
		t.Fatalf("in-batch duplicate AddBatch added %d, %v; want 1, nil", countAdded(oks), err)
	}
	want := eng.Sketcher().Sketch(dup[0])
	if got := eng.Index().Get("e"); !equalSig(got.Signature, want.Signature) {
		t.Fatal("in-batch duplicate: second occurrence overwrote the first")
	}
}

// TestRebucket: a directory index of the planted corpus, reopened under
// a coarser covering banding with OpenWith, keeps its shard count and
// answers the planted query's LSH search as before; a non-covering
// scheme is refused and the directory still opens under the new one.
func TestRebucket(t *testing.T) {
	dir := t.TempDir()
	eng, err := NewEngine(Options{IndexName: "planted", Tiered: true, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	recs, base := plantedRecords(200, 20, 3)
	if oks, err := eng.AddBatch(recs); countAdded(oks) != len(recs) || err != nil {
		t.Fatalf("AddBatch added %d, %v; want %d, nil", countAdded(oks), err, len(recs))
	}
	ix, q := eng.Index(), eng.Sketcher().Sketch(Record{Name: "query", Data: base})
	if err := ix.SaveDir(); err != nil {
		t.Fatal(err)
	}
	before, err := search(ix, q, ModeLSH, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	shards := ix.ShardCount()
	ix.Close()
	// Retune to a coarser scheme; planted near-duplicates sit far above
	// both thresholds, so the top-K list must be unchanged.
	lsh := LSHParams{Bands: 16, RowsPerBand: 8}
	got, err := OpenWith(dir, lsh)
	if err != nil {
		t.Fatal(err)
	}
	meta := got.Metadata()
	if meta.Bands != 16 || meta.RowsPerBand != 8 || meta.Shards != shards {
		t.Fatalf("metadata after OpenWith %+v = %+v", lsh, meta)
	}
	after, err := search(got, q, ModeLSH, 10, 0)
	got.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != len(after) {
		t.Fatalf("result count changed across the retune: %d vs %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("result %d changed across the retune: %+v vs %+v", i, before[i], after[i])
		}
	}
	// An invalid scheme is rejected and leaves the directory openable.
	if bad, err := OpenWith(dir, LSHParams{Bands: 5, RowsPerBand: 5}); err == nil {
		bad.Close()
		t.Fatal("OpenWith with non-covering scheme: want error")
	}
	again, err := OpenWith(dir, lsh)
	if err != nil {
		t.Fatalf("OpenWith after a refused scheme: %v", err)
	}
	defer again.Close()
	if again.ShardCount() != shards || again.Len() != len(recs) {
		t.Fatalf("after a refused OpenWith: shards=%d len=%d", again.ShardCount(), again.Len())
	}
}
