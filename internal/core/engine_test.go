package core

import (
	"context"
	"runtime"
	"testing"
)

func TestNewEngineDefaults(t *testing.T) {
	e, err := NewEngine(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Sketcher().K() != DefaultK || e.Sketcher().SignatureSize() != DefaultSignatureSize {
		t.Fatalf("sketcher params = (%d, %d), want defaults (%d, %d)",
			e.Sketcher().K(), e.Sketcher().SignatureSize(), DefaultK, DefaultSignatureSize)
	}
	meta := e.Index().Metadata()
	if meta.Name != "default" || meta.K != DefaultK || meta.SignatureSize != DefaultSignatureSize {
		t.Fatalf("index metadata = %+v", meta)
	}
	if mode := e.Stats().Mode; mode != ModeLSH {
		t.Fatalf("stats mode = %q, want %q: an empty Query.Mode searches LSH", mode, ModeLSH)
	}
	if e.Pool().Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("pool workers = %d, want GOMAXPROCS", e.Pool().Workers())
	}
	if _, err := NewEngine(Options{K: -1}); err == nil {
		t.Fatal("invalid options: want error")
	}
}

func TestNewEngineWithIndex(t *testing.T) {
	ix := NewIndex("wrapped", 4, 32)
	e, err := NewEngineWithIndex(ix, 2)
	if err != nil {
		t.Fatal(err)
	}
	if e.Index() != ix {
		t.Fatal("engine does not wrap the given index")
	}
	if e.Sketcher().K() != 4 || e.Sketcher().SignatureSize() != 32 {
		t.Fatalf("sketcher params = (%d, %d), want index params (4, 32)",
			e.Sketcher().K(), e.Sketcher().SignatureSize())
	}
	if e.Pool().Workers() != 2 {
		t.Fatalf("pool workers = %d, want 2", e.Pool().Workers())
	}
	if _, err := NewEngineWithIndex(NewIndex("bad", -1, 32), 0); err == nil {
		t.Fatal("invalid index params: want error")
	}
}

func TestEngineAddAndSearch(t *testing.T) {
	e, err := NewEngine(Options{K: 4, SignatureSize: 64, Threads: 2, IndexName: "facade"})
	if err != nil {
		t.Fatal(err)
	}
	refs := []Record{
		{Name: "close", Data: []byte("shared payload text that mostly overlaps with the query data")},
		{Name: "far", Data: []byte("zzz 999 ### totally different bytes with nothing in common !!!")},
	}
	for _, rec := range refs {
		added, err := addRecord(e, rec)
		if err != nil || !added {
			t.Fatalf("Add(%q) = %v, %v; want true, nil", rec.Name, added, err)
		}
	}
	// Duplicate add through the facade is skipped.
	added, err := addRecord(e, refs[0])
	if err != nil || added {
		t.Fatalf("duplicate Add = %v, %v; want false, nil", added, err)
	}
	results, err := e.Search(context.Background(), Record{
		Name: "q",
		Data: []byte("shared payload text that mostly overlaps with the query info"),
	}, Query{TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Ref != "close" || results[0].Similarity <= results[1].Similarity {
		t.Fatalf("results = %v, want close ranked first", results)
	}
}

func TestEngineAddBatchResults(t *testing.T) {
	e, err := NewEngine(Options{K: 4, SignatureSize: 64, IndexName: "batched"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := addRecord(e, Record{Name: "pre", Data: []byte("already indexed payload")}); err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Name: "a", Data: []byte("first fresh record payload in this batch")},
		{Name: "pre", Data: []byte("collides with an indexed name")},
		{Name: "a", Data: []byte("repeats a name earlier in the batch")},
		{Name: "b", Data: []byte("second fresh record payload in this batch")},
	}
	oks, err := e.AddBatch(recs)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, false, true}
	if len(oks) != len(want) {
		t.Fatalf("got %d flags, want %d", len(oks), len(want))
	}
	for i := range want {
		if oks[i] != want[i] {
			t.Fatalf("oks = %v, want %v", oks, want)
		}
	}
	if e.Index().Len() != 3 {
		t.Fatalf("index has %d records, want 3", e.Index().Len())
	}
	// A second pass adds nothing.
	if oks, err := e.AddBatch(recs); err != nil || countAdded(oks) != 0 {
		t.Fatalf("re-AddBatch = %v, %v; want none added", oks, err)
	}
	if oks, err := e.AddBatch(nil); err != nil || oks != nil {
		t.Fatalf("empty batch = %v, %v; want nil, nil", oks, err)
	}
}

// addRecord adds one record through AddBatch and reports whether it
// was added.
func addRecord(e *Engine, rec Record) (bool, error) {
	oks, err := e.AddBatch([]Record{rec})
	return oks[0], err
}

// countAdded counts the records an AddBatch reported added.
func countAdded(oks []bool) int {
	n := 0
	for _, ok := range oks {
		if ok {
			n++
		}
	}
	return n
}

func TestEngineStatsAndGeneration(t *testing.T) {
	e, err := NewEngine(Options{K: 4, SignatureSize: 32, IndexName: "stats", Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if gen := e.Index().Generation(); gen != 0 {
		t.Fatalf("fresh generation = %d, want 0", gen)
	}
	recs := []Record{
		{Name: "one", Data: []byte("payload number one for the stats test")},
		{Name: "two", Data: []byte("payload number two for the stats test")},
		{Name: "three", Data: []byte("payload number three for the stats test")},
	}
	if _, err := e.AddBatch(recs); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.IndexName != "stats" || st.Records != 3 || st.K != 4 || st.SignatureSize != 32 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Shards != 4 || len(st.ShardOccupancy) != 4 {
		t.Fatalf("shard stats = %+v", st)
	}
	occ := 0
	for _, n := range st.ShardOccupancy {
		occ += n
	}
	if occ != 3 {
		t.Fatalf("occupancy sums to %d, want 3", occ)
	}
	if st.Generation != 3 {
		t.Fatalf("generation = %d, want 3 (one bump per add)", st.Generation)
	}
	if st.Mode != ModeLSH || st.Bands == 0 || st.LSHThreshold <= 0 {
		t.Fatalf("lsh stats = %+v", st)
	}
	// Duplicate adds do not advance the generation: snapshotters can
	// trust "unchanged generation" to mean "nothing new to save".
	if _, err := addRecord(e, recs[0]); err != nil {
		t.Fatal(err)
	}
	if gen := e.Index().Generation(); gen != 3 {
		t.Fatalf("generation after duplicate add = %d, want 3", gen)
	}
}
