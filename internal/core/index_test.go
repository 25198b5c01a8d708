package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
)

func TestEmptyIndex(t *testing.T) {
	ix := NewIndex("empty", DefaultK, DefaultSignatureSize)
	if ix.Len() != 0 {
		t.Fatalf("Len = %d, want 0", ix.Len())
	}
	if got := recordNames(t, ix); len(got) != 0 {
		t.Fatalf("Records lists %v, want none", got)
	}
	if ix.Get("missing") != nil {
		t.Fatal("Get on empty index: want nil")
	}
	s := mustSketcher(t, DefaultK, DefaultSignatureSize)
	q := s.Sketch(Record{Name: "q", Data: []byte("some query data here")})
	results, err := search(ix, q, ModeExact, 5, 0)
	if err != nil {
		t.Fatalf("search on empty index: %v", err)
	}
	if len(results) != 0 {
		t.Fatalf("results = %v, want none", results)
	}
	meta := ix.Metadata()
	if meta.RecordCount != 0 || meta.Name != "empty" || meta.Version != Version {
		t.Fatalf("metadata = %+v", meta)
	}
}

func TestDuplicateAddsSkipped(t *testing.T) {
	ix := NewIndex("dup", 4, 32)
	s := mustSketcher(t, 4, 32)
	sk := s.Sketch(Record{Name: "rec", Data: []byte("hello world hello world")})

	added, err := ix.Add(sk)
	if err != nil || !added {
		t.Fatalf("first add = %v, %v; want true, nil", added, err)
	}
	// Second add with the same name must be skipped, not overwrite.
	other := s.Sketch(Record{Name: "rec", Data: []byte("totally different payload")})
	added, err = ix.Add(other)
	if err != nil {
		t.Fatalf("duplicate add: %v", err)
	}
	if added {
		t.Fatal("duplicate add reported added=true")
	}
	if ix.Len() != 1 {
		t.Fatalf("Len = %d, want 1", ix.Len())
	}
	if got := ix.Get("rec"); !equalSig(got.Signature, sk.Signature) {
		t.Fatal("duplicate add overwrote the original sketch")
	}
	if ix.Metadata().RecordCount != 1 {
		t.Fatalf("RecordCount = %d, want 1", ix.Metadata().RecordCount)
	}
}

func TestAddValidation(t *testing.T) {
	ix := NewIndex("v", 8, 64)
	if _, err := ix.Add(&Sketch{Name: "", K: 8, Signature: make([]uint64, 64)}); err == nil {
		t.Fatal("empty name: want error")
	}
	if _, err := ix.Add(&Sketch{Name: "x", K: 4, Signature: make([]uint64, 64)}); err == nil {
		t.Fatal("mismatched k: want error")
	}
	if _, err := ix.Add(&Sketch{Name: "x", K: 8, Signature: make([]uint64, 32)}); err == nil {
		t.Fatal("mismatched signature size: want error")
	}
	// A zero-slot index holds no signature to band or compare: an empty
	// one is refused like any other the index cannot hold, and so is
	// every search, rather than panicking on the empty band key.
	empty := NewIndex("v0", 8, 0)
	var se *SketchError
	if _, err := empty.Add(&Sketch{Name: "x", K: 8, Shingles: 9}); !errors.As(err, &se) {
		t.Fatalf("empty signature on a zero-slot index: err = %v, want a SketchError", err)
	}
	for _, mode := range modes {
		if _, err := search(empty, &Sketch{Name: "q", K: 8, Shingles: 9}, mode, 1, 0); err == nil {
			t.Fatalf("%s search of a zero-slot index: want error", mode)
		}
	}
}

// TestSaveDirOpenRoundTripPackedWidths round-trips a populated index
// through SaveDir/Open: metadata (including bits and the creation time),
// full-width signatures, search results and the 4-bit prefilter rebuilt
// from the segments must all survive.
func TestSaveDirOpenRoundTripPackedWidths(t *testing.T) {
	// The subtest is named for the width the manifest records.
	t.Run("bits=8", func(t *testing.T) {
		dir := t.TempDir()
		eng, err := NewEngine(Options{IndexName: "rt", Tiered: true, DataDir: dir, SegmentRows: 16})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Index().Close()
		for i := 0; i < 50; i++ {
			rec := Record{Name: fmt.Sprintf("rec-%d", i), Data: benchData(512, int64(i+1))}
			if _, err := addRecord(eng, rec); err != nil {
				t.Fatal(err)
			}
		}
		ix := eng.Index()
		q := eng.Sketcher().Sketch(Record{Name: "q", Data: benchData(512, 1)})
		before, err := search(ix, q, ModeExact, 10, 0)
		if err != nil {
			t.Fatal(err)
		}

		if err := ix.SaveDir(); err != nil {
			t.Fatal(err)
		}
		got, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer got.Close()
		gm := got.Metadata()
		if gm.Format != FormatV6 || gm.Bits != 8 || gm.RecordCount != 50 || !gm.CreatedAt.Equal(ix.Metadata().CreatedAt) {
			t.Fatalf("metadata = %+v, want format=%d bits=8 records=50 created_at=%v", gm, FormatV6, ix.Metadata().CreatedAt)
		}
		for _, name := range recordNames(t, ix) {
			if !equalSig(got.Get(name).Signature, ix.Get(name).Signature) {
				t.Fatalf("sketch %q changed across round trip", name)
			}
		}
		after, err := search(got, q, ModeExact, 10, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(before, after) {
			t.Fatalf("results changed across round trip:\n%+v\n%+v", before, after)
		}
		// The resident prefilter is rebuilt at one byte a slot, not the
		// full-width 1KB.
		if got.Arena().BytesPerRecord != DefaultSignatureSize/2 {
			t.Fatalf("loaded bytes/record = %v", got.Arena().BytesPerRecord)
		}
	})
}

// TestConcurrentAddAndQuery hammers the index from concurrent writers
// and readers; it exists to run under -race.
func TestConcurrentAddAndQuery(t *testing.T) {
	ix := NewIndex("conc", 4, 32)
	s := mustSketcher(t, 4, 32)
	q := s.Sketch(Record{Name: "query", Data: []byte("the query payload used by all readers")})

	const writers, readers, perWriter = 4, 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := Record{
					Name: fmt.Sprintf("w%d-rec%d", w, i),
					Data: []byte(fmt.Sprintf("record payload %d from writer %d with extra text", i, w)),
				}
				if _, err := ix.Add(s.Sketch(rec)); err != nil {
					t.Errorf("add: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := search(ix, q, ModeExact, 3, 0); err != nil {
					t.Errorf("search: %v", err)
					return
				}
				ix.Len()
				ix.Metadata()
				ix.Records("", 16)
			}
		}()
	}
	wg.Wait()
	if ix.Len() != writers*perWriter {
		t.Fatalf("Len = %d, want %d", ix.Len(), writers*perWriter)
	}
}
