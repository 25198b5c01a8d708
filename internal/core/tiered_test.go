package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// tieredRecords is the corpus tieredEngines indexes: n records
// "rec-<i>" of 256 pseudo-random bytes.
func tieredRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Name: fmt.Sprintf("rec-%d", i), Data: benchData(256, int64(i+1))}
	}
	return recs
}

// tieredEngines builds two engines over tieredRecords(n): a directory
// index with tiny segments (so sealing happens in every test) and an
// in-memory one, whose full-width rows stay on the heap. Both scan the
// same 4-bit prefilter, so the equality tests hold each of them to
// bruteTopK, which shares no code with either.
func tieredEngines(tb testing.TB, n int, segRows int) (tiered, plain *Engine) {
	tb.Helper()
	tiered, err := NewEngine(Options{
		IndexName: "tiered",
		Tiered:    true, DataDir: tb.TempDir(), SegmentRows: segRows,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { tiered.Index().Close() })
	plain, err = NewEngine(Options{IndexName: "plain"})
	if err != nil {
		tb.Fatal(err)
	}
	for _, rec := range tieredRecords(n) {
		if _, err := addRecord(tiered, rec); err != nil {
			tb.Fatal(err)
		}
		if _, err := addRecord(plain, rec); err != nil {
			tb.Fatal(err)
		}
	}
	return tiered, plain
}

// bruteTopK is the reference the search paths are held to, sharing
// nothing with them but Similarity and MergeTopK: the topK best of the
// refs whose similarity to q reaches minSim, less self-hits (same name
// and same signature as q).
func bruteTopK(q *Sketch, refs []*Sketch, topK int, minSim float64) []Result {
	var all []Result
	for _, r := range refs {
		if r.Name == q.Name && slices.Equal(r.Signature, q.Signature) {
			continue
		}
		sim, err := Similarity(q, r)
		if err != nil {
			panic(err)
		}
		if sim >= minSim {
			all = append(all, Result{Query: q.Name, Ref: r.Name, Similarity: sim, Distance: 1 - sim})
		}
	}
	return MergeTopK(all, topK)
}

// sketchAll sketches every record with s.
func sketchAll(s *Sketcher, recs []Record) []*Sketch {
	out := make([]*Sketch, len(recs))
	for i, rec := range recs {
		out[i] = s.Sketch(rec)
	}
	return out
}

// checkAgainstBrute runs q through both modes on every index and
// requires each answer to equal bruteTopK over refs.
func checkAgainstBrute(t *testing.T, q *Sketch, refs []*Sketch, topK int, minSim float64, ixs ...*Index) {
	t.Helper()
	want := bruteTopK(q, refs, topK, minSim)
	for _, mode := range modes {
		for _, ix := range ixs {
			got, err := search(ix, q, mode, topK, minSim)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s on %s q=%s minSim=%v:\n got %+v\nwant %+v", mode, ix.Metadata().Name, q.Name, minSim, got, want)
			}
		}
	}
}

// TestTieredSearchMatchesNonTiered is the tentpole's correctness
// property: because the packed b-bit score is an upper bound on the
// full-width score, the prefilter's minSim cut and the sorted-rescore
// early exit are both exact, so a directory index and a heap index
// must both return byte-identical results to a brute-force scan of the
// sketches — every mode, every minSim, including the self-exclusion of
// indexed queries.
func TestTieredSearchMatchesNonTiered(t *testing.T) {
	tiered, plain := tieredEngines(t, 600, 16)
	refs := sketchAll(plain.Sketcher(), tieredRecords(600))
	queries := []*Sketch{
		plain.Sketcher().Sketch(Record{Name: "q-near", Data: benchData(256, 1)}),
		plain.Sketcher().Sketch(Record{Name: "q-far", Data: benchData(256, 99999)}),
		plain.Index().Get("rec-7"), // indexed: self-hit must stay excluded
	}
	for _, q := range queries {
		for _, minSim := range []float64{0, 0.1, 0.5, 0.9} {
			checkAgainstBrute(t, q, refs, 10, minSim, tiered.Index(), plain.Index())
		}
	}
	// The scan actually went through the tier: rows were prefiltered and
	// survivors rescored from segments.
	st := tiered.Index().Tier()
	if st == nil || st.PrefilterScanned == 0 || st.Rescored == 0 {
		t.Fatalf("tier stats after searches: %+v", st)
	}
	if st.Segments == 0 || st.PrefilterBits != 4 {
		t.Fatalf("tier shape: %+v, want sealed segments and a 4-bit prefilter", st)
	}
}

// TestTieredSimilarityIsFullWidth pins the rescore half of the
// collision-bound property: the packed score may over-count (low-bit
// collisions), but every reported similarity must be computed from the
// full-width signature, exactly matchingSlots/slots — never the
// inflated prefilter value.
func TestTieredSimilarityIsFullWidth(t *testing.T) {
	const slots = DefaultSignatureSize
	eng, err := NewEngine(Options{
		IndexName: "fw",
		Tiered:    true, DataDir: t.TempDir(), SegmentRows: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Index().Close()
	s := eng.Sketcher()
	// Records across the overlap spectrum, like the collision-bound
	// test: each edits a random-length prefix of the query's payload.
	data := benchData(2048, 7)
	var sketches []*Sketch
	for i := 0; i < 60; i++ {
		edited := append([]byte(nil), data...)
		for j := 0; j < (i*len(edited))/60; j++ {
			edited[j] = byte('A' + (i+j)%26)
		}
		sk := s.Sketch(Record{Name: fmt.Sprintf("y-%d", i), Data: edited})
		sketches = append(sketches, sk)
		if _, err := eng.Index().Add(sk); err != nil {
			t.Fatal(err)
		}
	}
	q := s.Sketch(Record{Name: "x", Data: data})
	got, err := search(eng.Index(), q, ModeExact, len(sketches), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sketches) {
		t.Fatalf("got %d results, want %d", len(got), len(sketches))
	}
	bySketch := make(map[string]*Sketch, len(sketches))
	for _, sk := range sketches {
		bySketch[sk.Name] = sk
	}
	for _, r := range got {
		want := float64(matchingSlots(q.Signature, bySketch[r.Ref].Signature)) / float64(slots)
		if r.Similarity != want {
			t.Fatalf("result %s: similarity %v, want full-width %v", r.Ref, r.Similarity, want)
		}
	}
}

func TestTieredSaveDirOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	eng, err := NewEngine(Options{
		IndexName: "rt", Bits: 8,
		Tiered: true, DataDir: dir, SegmentRows: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Index().Close()
	for i := 0; i < 300; i++ {
		if _, err := addRecord(eng, Record{Name: fmt.Sprintf("rec-%d", i), Data: benchData(256, int64(i+1))}); err != nil {
			t.Fatal(err)
		}
	}
	ix := eng.Index()
	q := eng.Sketcher().Sketch(Record{Name: "q", Data: benchData(256, 3)})
	before, err := search(ix, q, ModeExact, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.SaveDir(); err != nil {
		t.Fatal(err)
	}
	checked(t, ix, "saved")

	got, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer got.Close()
	resealed(t, got, "opened")
	gm, wm := got.Metadata(), ix.Metadata()
	if gm.Format != FormatV6 || gm.Bits != 8 || gm.RecordCount != 300 ||
		gm.Name != wm.Name || gm.K != wm.K || gm.SignatureSize != wm.SignatureSize ||
		gm.Scheme != wm.Scheme || gm.Shards != wm.Shards {
		t.Fatalf("loaded metadata = %+v, want to match %+v", gm, wm)
	}
	// Full-width signatures survive the trip through segment files.
	for _, name := range []string{"rec-0", "rec-150", "rec-299"} {
		if !equalSig(got.Get(name).Signature, ix.Get(name).Signature) {
			t.Fatalf("sketch %q changed across SaveDir/Open", name)
		}
	}
	after, err := search(got, q, ModeExact, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("result %d changed across round trip: %+v vs %+v", i, before[i], after[i])
		}
	}

	// Incremental snapshot: add to the loaded index and save again. The
	// second snapshot appends new segments (sealed files are immutable)
	// and a third load sees everything.
	segsBefore := countSegments(t, dir)
	s := eng.Sketcher()
	for i := 300; i < 400; i++ {
		if _, err := got.Add(s.Sketch(Record{Name: fmt.Sprintf("rec-%d", i), Data: benchData(256, int64(i+1))})); err != nil {
			t.Fatal(err)
		}
	}
	if err := got.SaveDir(); err != nil {
		t.Fatal(err)
	}
	checked(t, got, "saved again")
	if segsAfter := countSegments(t, dir); segsAfter <= segsBefore {
		t.Fatalf("second snapshot did not append segments: %d -> %d", segsBefore, segsAfter)
	}
	again, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after incremental snapshot: %v", err)
	}
	defer again.Close()
	resealed(t, again, "opened again")
	if again.Len() != 400 || again.Get("rec-399") == nil {
		t.Fatalf("incremental snapshot lost records: len=%d", again.Len())
	}
	// No temp files may be left behind anywhere in the data dir.
	for _, sub := range []string{dir, filepath.Join(dir, "segments")} {
		entries, err := os.ReadDir(sub)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".tmp") {
				t.Fatalf("temp file %s left in %s", e.Name(), sub)
			}
		}
	}
}

func countSegments(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "segments"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") {
			n++
		}
	}
	return n
}

// saveTieredDir builds a small tiered index, snapshots it into dir, and
// returns the path of one sealed segment file.
func saveTieredDir(t *testing.T, dir string) string {
	t.Helper()
	eng, err := NewEngine(Options{
		IndexName: "corrupt",
		Tiered:    true, DataDir: dir, SegmentRows: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Index().Close()
	for i := 0; i < 100; i++ {
		if _, err := addRecord(eng, Record{Name: fmt.Sprintf("rec-%d", i), Data: benchData(256, int64(i+1))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Index().SaveDir(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "segments", "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files written: %v", err)
	}
	return segs[0]
}

// TestLoadDirRejectsCorruptSegments: every way a segment file can rot —
// truncation, bit flips in the payload, a clobbered header, a missing
// file — must fail the load with an error naming the file and the
// failing check, never load wrong data.
func TestLoadDirRejectsCorruptSegments(t *testing.T) {
	cases := map[string]struct {
		corrupt func(t *testing.T, seg string)
		wantErr string
	}{
		"truncated": {func(t *testing.T, seg string) {
			fi, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(seg, fi.Size()-8); err != nil {
				t.Fatal(err)
			}
		}, "truncated"},
		"payload bit flip": {func(t *testing.T, seg string) {
			b, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)-1] ^= 0x40
			if err := os.WriteFile(seg, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}, "checksum"},
		"bad magic": {func(t *testing.T, seg string) {
			b, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			copy(b[0:4], "NOPE")
			if err := os.WriteFile(seg, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}, "magic"},
		"missing file": {func(t *testing.T, seg string) {
			if err := os.Remove(seg); err != nil {
				t.Fatal(err)
			}
		}, "no such file"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			seg := saveTieredDir(t, dir)
			tc.corrupt(t, seg)
			ix, err := Open(dir)
			if err == nil {
				ix.Close()
				t.Fatalf("Open loaded a corrupt directory")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
			if !strings.Contains(err.Error(), filepath.Base(seg)) && name != "missing file" {
				t.Fatalf("error %q does not name the corrupt file %s", err, filepath.Base(seg))
			}
		})
	}
	// A corrupted manifest is rejected too.
	for name, corrupt := range corruptManifests {
		t.Run("manifest "+name, func(t *testing.T) {
			dir := t.TempDir()
			saveTieredDir(t, dir)
			path := filepath.Join(dir, ManifestFile)
			good, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(t, good), 0o644); err != nil {
				t.Fatal(err)
			}
			if ix, err := Open(dir); err == nil {
				ix.Close()
				t.Fatal("Open accepted a corrupt manifest")
			}
		})
	}
}

// corruptManifests maps a name to a rewrite of a valid manifest that
// Open must reject; FuzzOpenManifest seeds its corpus from the same
// set.
var corruptManifests = map[string]func(t testing.TB, good []byte) []byte{
	"not json": func(testing.TB, []byte) []byte { return []byte("{not json") },
	"foreign scheme": func(t testing.TB, good []byte) []byte {
		return editManifest(t, good, func(m *manifest) { m.Meta.Scheme = "kmh" })
	},
	"json format number": func(t testing.TB, good []byte) []byte {
		return editManifest(t, good, func(m *manifest) { m.Meta.Format = 4 })
	},
	"shard entries": func(t testing.TB, good []byte) []byte {
		return editManifest(t, good, func(m *manifest) { m.Shards = m.Shards[1:] })
	},
	"deleted row out of range": func(t testing.TB, good []byte) []byte {
		return editManifest(t, good, func(m *manifest) { m.Shards[0].Deleted = []int32{1 << 20} })
	},
}

// staleOrders maps a name to a rewrite of a valid manifest whose order
// is no permutation of the live records. Older builds refused these;
// order is written only for them, and Open ignores it.
var staleOrders = map[string]func(t testing.TB, good []byte) []byte{
	"duplicate in order": func(t testing.TB, good []byte) []byte {
		return editManifest(t, good, func(m *manifest) { m.Order[1] = m.Order[0] })
	},
	"unknown in order": func(t testing.TB, good []byte) []byte {
		return editManifest(t, good, func(m *manifest) { m.Order[0] = "no-such-record" })
	},
	"short order": func(t testing.TB, good []byte) []byte {
		return editManifest(t, good, func(m *manifest) { m.Order = m.Order[1:] })
	},
}

// TestOpenIgnoresManifestOrder: a manifest whose order lists a record
// twice, names an unknown one or leaves one out opens, and the walk
// lists every live record once.
func TestOpenIgnoresManifestOrder(t *testing.T) {
	for name, stale := range staleOrders {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			saveTieredDir(t, dir)
			path := filepath.Join(dir, ManifestFile)
			good, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var m manifest
			if err := json.Unmarshal(good, &m); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, stale(t, good), 0o644); err != nil {
				t.Fatal(err)
			}
			ix, err := Open(dir)
			if err != nil {
				t.Fatalf("Open refused a manifest over its order: %v", err)
			}
			defer ix.Close()
			if got := recordNames(t, ix); !slices.Equal(got, m.Order) || ix.Len() != len(m.Order) {
				t.Fatalf("walk lists %d records (Len %d), want the %d saved: %v", len(got), ix.Len(), len(m.Order), got)
			}
		})
	}
}

// TestSaveDirOrderIsLivePermutation: the order SaveDir writes for older
// readers is the shard-by-shard walk, a permutation of the live names,
// with tombstoned rows, compacted or not, and a re-added name in play.
func TestSaveDirOrderIsLivePermutation(t *testing.T) {
	dir := t.TempDir()
	eng, err := NewEngine(Options{IndexName: "order", Shards: 4, Bits: 8, Tiered: true, DataDir: dir, SegmentRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	ix := eng.Index()
	defer ix.Close()
	for round := 0; round < 2; round++ { // the second round's save compacts
		for i := 0; i < 40; i++ {
			if _, err := addRecord(eng, Record{Name: fmt.Sprintf("rec-%d", i), Data: benchData(256, int64(i+1))}); err != nil {
				t.Fatal(err)
			}
		}
		for i := round; i < 40; i += []int{6, 2}[round] { // a sixth, then half, of the names
			if _, err := ix.Delete(fmt.Sprintf("rec-%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := ix.SaveDir(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, ManifestFile))
		if err != nil {
			t.Fatal(err)
		}
		var m manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		live := recordNames(t, ix)
		if !slices.Equal(m.Order, live) || len(live) != ix.Len() || m.Meta.RecordCount != ix.Len() {
			t.Fatalf("round %d: manifest order %v (record_count %d), want the walk %v (Len %d)", round, m.Order, m.Meta.RecordCount, live, ix.Len())
		}
		seen := map[string]bool{}
		for _, n := range m.Order {
			if seen[n] || !ix.Has(n) {
				t.Fatalf("round %d: order lists %q twice or it is not live", round, n)
			}
			seen[n] = true
		}
	}
	if ix.compactions.Load() == 0 {
		t.Fatal("no shard was compacted; the second round must cover a compacted stripe")
	}
}

// TestManifestGolden pins MANIFEST.json byte for byte
// (testdata/manifest.golden, written at the commit before the per-stripe
// name table) over a directory that went through adds on every stripe, a
// delete, a delete + re-add of one name, a compaction, a WAL tail
// replayed by Open, and names JSON escapes. Timestamps and the version
// are pinned; everything else is what SaveDir writes.
func TestManifestGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/manifest.golden")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	eng, err := NewEngine(Options{IndexName: "golden", Shards: 4, Tiered: true, DataDir: dir, SegmentRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	ix := eng.Index()
	add := func(name string, seed int64) {
		t.Helper()
		if ok, err := addRecord(eng, Record{Name: name, Data: benchData(256, seed)}); err != nil || !ok {
			t.Fatalf("add %q = %v, %v", name, ok, err)
		}
	}
	del := func(name string) {
		t.Helper()
		if ok, err := ix.Delete(name); err != nil || !ok {
			t.Fatalf("delete %q = %v, %v", name, ok, err)
		}
	}
	var names []string
	for i := 0; i < 36; i++ {
		names = append(names, fmt.Sprintf("f%d-m%d", i/6, i%6))
	}
	names = append(names, `a"b`, "<tag>&", "naïve-日本", "x")
	byShard := make([][]string, 4)
	for i, n := range names {
		add(n, int64(i+1))
		byShard[shardFor(n, 4)] = append(byShard[shardFor(n, 4)], n)
	}
	if err := ix.SaveDir(); err != nil {
		t.Fatal(err)
	}
	checked(t, ix, "first snapshot")
	// Stripe 0 loses half its rows and compacts at the next save; stripe 1
	// deletes one name and re-adds another under fresh data, staying
	// under the threshold, so its manifest keeps a dead row whose name a
	// live row shares.
	for _, n := range byShard[0][:len(byShard[0])/2] {
		del(n)
	}
	del(byShard[1][0])
	del(byShard[1][1])
	add(byShard[1][1], 1000)
	if err := ix.SaveDir(); err != nil {
		t.Fatal(err)
	}
	resealed(t, ix, "compacted")
	// The WAL tail: acked, never snapshotted, replayed by Open.
	add("tail-0", 2000)
	add("tail-1", 2001)
	del(byShard[2][0])
	if err := ix.SyncWAL(ix.WALTicket()); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	resealed(t, got, "opened over the tail")
	if got.tier.walReplayed.Load() != 3 || ix.compactions.Load() != 1 {
		t.Fatalf("replayed %d WAL frames, compacted %d stripes; want 3 and 1", got.tier.walReplayed.Load(), ix.compactions.Load())
	}
	got.meta.Version = "golden"
	got.meta.CreatedAt = time.Date(2020, 1, 2, 3, 4, 5, 6, time.UTC)
	got.meta.UpdatedAt = got.meta.CreatedAt.Add(time.Hour)
	if err := got.SaveDir(); err != nil {
		t.Fatal(err)
	}
	checked(t, got, "snapshot of the reopened index")
	raw, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatalf("MANIFEST.json differs from the golden file\n got:\n%s\nwant:\n%s", raw, want)
	}
}

func editManifest(t testing.TB, good []byte, edit func(*manifest)) []byte {
	t.Helper()
	var m manifest
	if err := json.Unmarshal(good, &m); err != nil {
		t.Fatal(err)
	}
	edit(&m)
	out, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// streamedManifest returns what m.writeTo writes, having checked it
// against encoding/json's own encoding of m, and the largest single Write
// that reached the writer.
func streamedManifest(t testing.TB, m *manifest) (out []byte, maxWrite int) {
	t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(m); err != nil {
		t.Fatal(err)
	}
	var got writeSizes
	if err := m.writeTo(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		i := 0
		for i < got.Len() && i < want.Len() && got.Bytes()[i] == want.Bytes()[i] {
			i++
		}
		t.Fatalf("writeTo wrote %d bytes, Encode %d; they part at byte %d:\n got: ...%.80q\nwant: ...%.80q",
			got.Len(), want.Len(), i, got.Bytes()[i:], want.Bytes()[i:])
	}
	return got.Bytes(), got.max
}

// writeSizes is a buffer that remembers its largest Write.
type writeSizes struct {
	bytes.Buffer
	max int
}

func (w *writeSizes) Write(p []byte) (int, error) {
	w.max = max(w.max, len(p))
	return w.Buffer.Write(p)
}

// TestManifestStreamsIdentically: manifests with names that JSON escapes
// every way it can, lists on both sides of every chunk boundary, nil and
// empty slices and shards with and without tombstones stream to exactly
// the bytes json.Encoder writes — a MANIFEST.json is the same file as
// before — in writes that stay small however long the lists are.
func TestManifestStreamsIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pieces := []string{"a", "rec-", "0", "\"", "\\", "<", ">", "&", "\u2028", "\u2029", "\x00", "\x1f", "\n", "é", "日本", "\xff", "😀", "/"}
	names := func(n int, nilIfEmpty bool) []string {
		if n == 0 && nilIfEmpty {
			return nil
		}
		out := make([]string, n)
		for i := range out {
			for j := rng.Intn(7); j >= 0; j-- {
				out[i] += pieces[rng.Intn(len(pieces))]
			}
		}
		return out
	}
	ints := func(n int, nilIfEmpty bool) []int32 {
		if n == 0 && nilIfEmpty {
			return nil
		}
		out := make([]int32, n)
		for i := range out {
			out[i] = rng.Int31() - 1<<30
		}
		return out
	}
	sizes := []int{0, 0, 1, 2, manifestChunk - 1, manifestChunk, manifestChunk + 1, 2 * manifestChunk, 2*manifestChunk + 77, 10000}
	size := func() int { return sizes[rng.Intn(len(sizes))] }
	for round := 0; round < 40; round++ {
		m := &manifest{
			Meta: Metadata{Name: names(1, false)[0], Version: Version, Format: FormatV6, CreatedAt: time.Unix(rng.Int63n(1<<32), rng.Int63n(1e9)).UTC(),
				RecordCount: rng.Intn(100), K: 8, SignatureSize: 128, Scheme: SchemeOPH, Bits: rng.Intn(2) * 8, Bands: 32, RowsPerBand: 4, Shards: rng.Intn(4)},
			Tier:  manifestTier{SegmentRows: rng.Intn(5000)},
			Order: names(size(), round%2 == 0),
		}
		if round%5 != 0 { // else Shards stays nil
			m.Shards = make([]manifestShard, rng.Intn(4))
		}
		for i := range m.Shards {
			ms := &m.Shards[i]
			ms.Names, ms.Shingles, ms.Deleted = names(size(), round%3 == 0), ints(size(), round%3 == 1), ints(size()%300, round%2 == 1)
			if round%4 != 0 {
				ms.Segments = make([]manifestSegment, rng.Intn(3))
				for j := range ms.Segments {
					ms.Segments[j] = manifestSegment{File: names(1, false)[0], Base: rng.Intn(1 << 20), Rows: rng.Intn(1 << 20), CRC32: rng.Uint32()}
				}
			}
		}
		if _, maxWrite := streamedManifest(t, m); maxWrite > 128<<10 {
			t.Fatalf("round %d: one Write of %d bytes; want the lists streamed in pieces of at most 128 KiB", round, maxWrite)
		}
	}
}

// FuzzOpenManifest feeds arbitrary MANIFEST.json bytes to Open over an
// otherwise valid directory: the manifest is read back from disk, where
// anything may have happened to it, so Open must return an index or an
// error — never panic, and never an index whose record count disagrees
// with the names it lists. Whatever decodes as a manifest must also
// survive the writer: streamed like encoding/json would encode it, and
// decoded again, it streams to the same bytes.
func FuzzOpenManifest(f *testing.F) {
	// One shard, one segment: small enough to copy per input.
	src := f.TempDir()
	eng, err := NewEngine(Options{IndexName: "fuzz", Shards: 1, Bits: 8, Tiered: true, DataDir: src})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := addRecord(eng, Record{Name: fmt.Sprintf("rec-%d", i), Data: benchData(256, int64(i+1))}); err != nil {
			f.Fatal(err)
		}
	}
	if err := errors.Join(eng.Index().SaveDir(), eng.Index().Close()); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(src, ManifestFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	for _, corrupt := range corruptManifests {
		f.Add(corrupt(f, good))
	}
	for _, stale := range staleOrders {
		f.Add(stale(f, good))
	}
	f.Fuzz(func(t *testing.T, man []byte) {
		var m, again manifest
		if json.Unmarshal(man, &m) == nil {
			out, _ := streamedManifest(t, &m)
			if err := json.Unmarshal(out, &again); err != nil {
				t.Fatalf("the streamed manifest does not decode: %v", err)
			}
			if out2, _ := streamedManifest(t, &again); !bytes.Equal(out, out2) {
				t.Fatalf("manifest changed on a round trip:\n%s\n%s", out, out2)
			}
		}
		// A fresh copy per input: Open truncates torn WAL tails and a
		// successful one attaches logs, so inputs must not share state.
		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ManifestFile), man, 0o644); err != nil {
			t.Fatal(err)
		}
		ix, err := Open(dir)
		if err != nil {
			return
		}
		defer ix.Close()
		names := recordNames(t, ix)
		if ix.Len() != len(names) {
			t.Fatalf("Len() = %d but Records lists %d", ix.Len(), len(names))
		}
		seen := make(map[string]bool, len(names))
		for _, n := range names {
			if seen[n] || !ix.Has(n) {
				t.Fatalf("Records lists %q twice or it is not live", n)
			}
			seen[n] = true
		}
	})
}

// TestSegmentPreadFallback forces the non-mmap path (the same one
// non-Unix builds and exotic filesystems take) and checks the tier is
// fully functional on it: sealing, loading, row reads, and searches all
// agree with the mmap path, with MappedBytes reporting zero.
func TestSegmentPreadFallback(t *testing.T) {
	old := mmapForceFallback
	mmapForceFallback = true
	defer func() { mmapForceFallback = old }()

	tiered, plain := tieredEngines(t, 300, 32)
	if st := tiered.Index().Tier(); st.MappedBytes != 0 {
		t.Fatalf("fallback path reports %d mapped bytes, want 0", st.MappedBytes)
	}
	q := plain.Sketcher().Sketch(Record{Name: "q", Data: benchData(256, 5)})
	want, err := search(plain.Index(), q, ModeExact, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := search(tiered.Index(), q, ModeExact, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pread result %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	// Round trip on the fallback path too.
	if err := tiered.Index().SaveDir(); err != nil {
		t.Fatal(err)
	}
	loaded, err := Open(tiered.Index().DataDir())
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	got, err = search(loaded, q, ModeExact, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pread round-trip result %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestTieredBudgetCapsRescores: a positive budget must bound the
// full-width reads a query spends per shard, and budget 0 must not.
func TestTieredBudgetCapsRescores(t *testing.T) {
	tiered, _ := tieredEngines(t, 600, 16)
	ix := tiered.Index()
	q := tiered.Sketcher().Sketch(Record{Name: "q", Data: benchData(256, 2)})

	ix.SetBudget(2)
	if ix.Budget() != 2 {
		t.Fatalf("Budget() = %d after SetBudget(2)", ix.Budget())
	}
	before := ix.Tier().Rescored
	if _, err := search(ix, q, ModeExact, 10, 0); err != nil {
		t.Fatal(err)
	}
	delta := ix.Tier().Rescored - before
	maxRescores := uint64(2 * ix.Metadata().Shards)
	if delta == 0 || delta > maxRescores {
		t.Fatalf("budgeted search rescored %d rows, want 1..%d", delta, maxRescores)
	}

	ix.SetBudget(0)
	before = ix.Tier().Rescored
	if _, err := search(ix, q, ModeExact, 600, 0); err != nil {
		t.Fatal(err)
	}
	if delta := ix.Tier().Rescored - before; delta <= maxRescores {
		t.Fatalf("unbounded topK=600 search rescored only %d rows", delta)
	}
}

// TestTieredBudgetRecall: a positive budget rescores only each shard's
// highest packed counts, so what it may lose rides on how well the
// prefilter's count orders rows. Ten families of 100 copies of a base
// payload, graded from 1 to 25 byte edits, sit among as many unrelated
// rows; each base is queried for its top 10, and the hits shared with
// the brute-force top 10 must reach the floor. Nibble counts over-count
// an unrelated slot pair 1 time in 16, yet the families' grades are far
// wider than that noise: 8-bit counts measured the same recall (1.0 at
// 16 shards and budget 4, 0.99 at one shard and budget 10).
func TestTieredBudgetRecall(t *testing.T) {
	const families, graded, filler, topK = 10, 100, 1000, 10
	rng := rand.New(rand.NewSource(41))
	var recs []Record
	var bases [][]byte
	for f := 0; f < families; f++ {
		base := benchData(256, int64(100+f))
		bases = append(bases, base)
		for i := 0; i < graded; i++ {
			data := slices.Clone(base)
			for j := 0; j <= i/4; j++ {
				data[rng.Intn(len(data))] = byte('a' + rng.Intn(26))
			}
			recs = append(recs, Record{Name: fmt.Sprintf("f%d-%d", f, i), Data: data})
		}
	}
	for i := 0; i < filler; i++ {
		recs = append(recs, Record{Name: fmt.Sprintf("rand-%d", i), Data: benchData(256, int64(5000+i))})
	}
	for _, c := range []struct {
		shards, budget int
		floor          float64
	}{{16, 4, 0.95}, {1, 10, 0.95}, {1, 16, 0.95}} {
		eng, err := NewEngine(Options{IndexName: "budget", Shards: c.shards, Tiered: true, DataDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Index().Close()
		if oks, err := eng.AddBatch(recs); err != nil || countAdded(oks) != len(recs) {
			t.Fatalf("AddBatch added %d, %v; want %d, nil", countAdded(oks), err, len(recs))
		}
		refs := sketchAll(eng.Sketcher(), recs)
		ix := eng.Index()
		ix.SetBudget(c.budget)
		hits := 0
		for f, base := range bases {
			q := eng.Sketcher().Sketch(Record{Name: fmt.Sprintf("q%d", f), Data: base})
			got, err := search(ix, q, ModeExact, topK, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range bruteTopK(q, refs, topK, 0) {
				if slices.ContainsFunc(got, func(r Result) bool { return r.Ref == w.Ref }) {
					hits++
				}
			}
		}
		recall := float64(hits) / float64(families*topK)
		t.Logf("shards %d budget %d: recall@%d %.2f", c.shards, c.budget, topK, recall)
		if recall < c.floor {
			t.Fatalf("shards %d budget %d: recall@%d %.2f, want at least %.2f", c.shards, c.budget, topK, recall, c.floor)
		}
	}
}

// TestTieredSearchRejectsTruncatedQuery: 8 is the only width a caller
// may ask for, and a manifest may name only 4 or a width some build
// wrote (8, 16 and 64; all open alike), as the replicate endpoint
// refuses any wire width but 64.
func TestTieredSearchRejectsTruncatedQuery(t *testing.T) {
	const want = "unsupported packing width"
	for _, bits := range []int{16, 64} {
		if _, err := NewEngine(Options{Bits: bits, Tiered: true, DataDir: t.TempDir()}); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("NewEngine(Bits %d, Tiered): err = %v, want %q", bits, err, want)
		}
	}
	if _, err := Open(savedAtBits(t, 32)); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Open of a 32-bit manifest: err = %v, want %q", err, want)
	}
}

// TestOpenSixteenBitDirectory: SaveDir writes bits 8, and a directory
// whose manifest says 4, 8, 16 or 64 (older builds wrote the last two)
// opens alike, since the prefilter is rebuilt at 4 bits from the
// full-width segments whatever the key says: its answers, and a heap
// index's over the same records, are byte-identical to the brute-force
// reference, and its next snapshot records 8 again, the one width older
// builds accept.
func TestOpenSixteenBitDirectory(t *testing.T) {
	_, plain := tieredEngines(t, 100, 32) // the records saveTieredDir adds
	refs := sketchAll(plain.Sketcher(), tieredRecords(100))
	q := plain.Sketcher().Sketch(Record{Name: "q", Data: benchData(256, 2)})
	saved := t.TempDir()
	saveTieredDir(t, saved)
	var written manifest
	if raw, err := os.ReadFile(filepath.Join(saved, ManifestFile)); err != nil || json.Unmarshal(raw, &written) != nil || written.Meta.Bits != 8 {
		t.Fatalf("SaveDir wrote bits %d (%v), want 8", written.Meta.Bits, err)
	}
	for _, bits := range []int{4, 8, 16, 64} {
		dir := savedAtBits(t, bits)
		ix, err := Open(dir)
		if err != nil || ix.Metadata().Bits != 8 || ix.Arena().Bits != 4 {
			t.Fatalf("Open of a %d-bit directory: %v; want metadata bits 8 over a 4-bit arena", bits, err)
		}
		defer ix.Close()
		checkAgainstBrute(t, q, refs, 20, 0, ix, plain.Index())
		if err := ix.SaveDir(); err != nil {
			t.Fatal(err)
		}
		var m manifest
		if raw, err := os.ReadFile(filepath.Join(dir, ManifestFile)); err != nil || json.Unmarshal(raw, &m) != nil || m.Meta.Bits != 8 {
			t.Fatalf("%d-bit manifest after SaveDir says bits %d (%v), want 8", bits, m.Meta.Bits, err)
		}
	}
}

// savedAtBits saves a tiered index and rewrites its manifest's bits.
func savedAtBits(t *testing.T, bits int) string {
	t.Helper()
	dir := t.TempDir()
	saveTieredDir(t, dir)
	path := filepath.Join(dir, ManifestFile)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, editManifest(t, good, func(m *manifest) { m.Meta.Bits = bits }), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestTieredGetSketchFullWidth: Get on a tiered index reconstructs the
// record from the full-width tier, not the truncated prefilter.
func TestTieredGetSketchFullWidth(t *testing.T) {
	tiered, plain := tieredEngines(t, 100, 32)
	for _, name := range []string{"rec-0", "rec-50", "rec-99"} {
		got, want := tiered.Index().Get(name), plain.Index().Get(name)
		if got == nil || !equalSig(got.Signature, want.Signature) {
			t.Fatalf("tiered Get(%q) = %v, want the full-width signature", name, got)
		}
	}
}

// TestTieredRebucket: a tiered directory reopens under another banding
// (OpenWith) without re-sketching, in the one rebuild every open pays. A covering scheme
// answers as bruteTopK does, with the WAL tail sealed under its keys;
// one that does not cover the signature is refused with the directory
// untouched; the zero value opens as Open does.
func TestTieredRebucket(t *testing.T) {
	tiered, _ := tieredEngines(t, 300, 64)
	ix, sk := tiered.Index(), tiered.Sketcher()
	if err := ix.SaveDir(); err != nil {
		t.Fatal(err)
	}
	// The tail: adds and a delete acked after the snapshot, in the WAL only.
	recs := tieredRecords(330)
	for _, rec := range recs[300:] {
		if _, err := addRecord(tiered, rec); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := tiered.Delete("rec-310"); !ok || err != nil {
		t.Fatalf("delete rec-310: ok=%v err=%v", ok, err)
	}
	dir := ix.DataDir()
	ix.Close()
	var refs []*Sketch
	for _, rec := range recs {
		if rec.Name != "rec-310" {
			refs = append(refs, sk.Sketch(rec))
		}
	}
	queries := []*Sketch{
		sk.Sketch(Record{Name: "q", Data: benchData(256, 9)}),        // rec-8, in the snapshot
		sk.Sketch(Record{Name: "q-tail", Data: benchData(256, 321)}), // rec-320, in the tail
	}

	t.Run("non-covering", func(t *testing.T) {
		before := dirFiles(t, dir)
		for _, lsh := range []LSHParams{{Bands: 5, RowsPerBand: 5}, {Bands: 16}} {
			if got, err := OpenWith(dir, lsh); err == nil {
				got.Close()
				t.Fatalf("OpenWith %+v: want an error", lsh)
			}
		}
		if after := dirFiles(t, dir); !maps.Equal(before, after) {
			t.Fatal("a refused OpenWith changed the directory")
		}
	})
	t.Run("zero", func(t *testing.T) {
		a, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		b, err := OpenWith(dir, LSHParams{})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		ma, mb := a.Metadata(), b.Metadata()
		ma.UpdatedAt, mb.UpdatedAt = time.Time{}, time.Time{} // stamped by the replay
		if ma != mb || a.LSHParams() != DefaultLSHParams(ma.SignatureSize) || b.LSHParams() != a.LSHParams() {
			t.Fatalf("OpenWith zero: %+v under %+v; Open: %+v under %+v", mb, b.LSHParams(), ma, a.LSHParams())
		}
		for _, q := range queries {
			checkAgainstBrute(t, q, refs, 10, 0, a, b)
		}
	})
	t.Run("covering", func(t *testing.T) {
		lsh := LSHParams{Bands: 16, RowsPerBand: 8}
		got, err := OpenWith(dir, lsh)
		if err != nil {
			t.Fatal(err)
		}
		defer got.Close()
		if meta := got.Metadata(); got.LSHParams() != lsh || meta.Bands != 16 || meta.RowsPerBand != 8 ||
			meta.Shards != DefaultShards || got.Len() != len(refs) {
			t.Fatalf("OpenWith %+v: %+v under %+v, %d records", lsh, meta, got.LSHParams(), got.Len())
		}
		if _, _, delta, seals := got.posts.size(); delta != 0 || seals != 1 {
			t.Fatalf("%d delta postings after %d rebuilds; want one rebuild sealing snapshot and tail", delta, seals)
		}
		// Each live tail row is a candidate of its own signature under the
		// new keys; the deleted one is in no stripe.
		buf := getSearchBuf()
		defer putSearchBuf(buf)
		for _, rec := range recs[300:] {
			s := sk.Sketch(rec)
			q := buf.prepare(s, 0, len(got.shards))
			buf.prepareBandKeys(got, s)
			probeCandidates(got.posts, got.shards, q, buf.scratch)
			si := shardFor(rec.Name, len(got.shards))
			row := got.shards[si].names.lookup(rec.Name, got.shards[si].dead)
			if (row >= 0) != (rec.Name != "rec-310") || row >= 0 && !slices.Contains(buf.scratch[si].cands, row) {
				t.Fatalf("%s: row %d, candidates %v", rec.Name, row, buf.scratch[si].cands)
			}
		}
		for _, q := range queries {
			for _, minSim := range []float64{0, 0.1} {
				checkAgainstBrute(t, q, refs, 10, minSim, got)
			}
		}
	})
}

// dirFiles maps every file under dir to its contents.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		files[path] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// BenchmarkTieredSearch reports the tier-health metrics: the prefilter
// survival rate (fraction of rows whose packed score cleared minSim and
// went to ranking) and mapped segment bytes per record.
func BenchmarkTieredSearch(b *testing.B) {
	const n = 5000
	eng, err := NewEngine(Options{
		IndexName: "bench", Bits: 8,
		Tiered: true, DataDir: b.TempDir(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Index().Close()
	for i := 0; i < n; i++ {
		if _, err := addRecord(eng, Record{Name: fmt.Sprintf("rec-%d", i), Data: benchData(256, int64(i+1))}); err != nil {
			b.Fatal(err)
		}
	}
	if err := eng.Index().SaveDir(); err != nil {
		b.Fatal(err)
	}
	q := eng.Sketcher().Sketch(Record{Name: "q", Data: benchData(256, 42)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search(eng.Index(), q, ModeExact, 10, 0.5); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := eng.Index().Tier()
	b.ReportMetric(st.SurvivalRate, "survival")
	b.ReportMetric(float64(st.MappedBytes)/float64(n), "mappedB/rec")
}
