package core

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// walEngine builds a tiered engine over dir with n records committed
// by one SaveDir, so the WAL is attached and every later acked
// mutation is durable through it.
func walEngine(t *testing.T, dir string, n int) *Engine {
	t.Helper()
	eng, err := NewEngine(Options{
		IndexName: "wal", Bits: 8,
		Tiered: true, DataDir: dir, SegmentRows: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := addRecord(eng, Record{Name: fmt.Sprintf("rec-%d", i), Data: benchData(256, int64(i+1))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Index().SaveDir(); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestWALCrashRecovery is the tentpole's durability proof: mutations
// acknowledged after the last snapshot exist only in the WALs, and a
// reopen must reconstruct exactly the acknowledged state — every acked
// add present, every acked delete absent — from replay alone.
func TestWALCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	eng := walEngine(t, dir, 40)

	// Acked delta after the snapshot: 20 adds and 10 deletes, each
	// synced to the WAL by the engine's ack path. No second SaveDir.
	for i := 40; i < 60; i++ {
		if _, err := addRecord(eng, Record{Name: fmt.Sprintf("rec-%d", i), Data: benchData(256, int64(i+1))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if ok, err := eng.Delete(fmt.Sprintf("rec-%d", i)); !ok || err != nil {
			t.Fatalf("delete rec-%d = %v, %v", i, ok, err)
		}
	}
	// The crash: no snapshot of the delta. Close only releases file
	// handles; everything acked is already fsynced in the WALs.
	if err := eng.Index().Close(); err != nil {
		t.Fatal(err)
	}

	ix, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	defer ix.Close()
	if ix.Len() != 50 {
		t.Fatalf("recovered %d records, want 50", ix.Len())
	}
	for i := 0; i < 10; i++ {
		if ix.Has(fmt.Sprintf("rec-%d", i)) {
			t.Fatalf("deleted rec-%d resurrected by replay", i)
		}
	}
	for i := 10; i < 60; i++ {
		if !ix.Has(fmt.Sprintf("rec-%d", i)) {
			t.Fatalf("acked rec-%d lost in the crash", i)
		}
	}
	ws := ix.WAL()
	if ws == nil || ws.ReplayedFrames != 30 {
		t.Fatalf("WAL stats after replay = %+v, want 30 replayed frames", ws)
	}
	// Deleted records must not surface in search either: query with a
	// deleted record's own payload, the strongest possible attractor.
	q := NewEngineSketch(t, "q", benchData(256, 6)) // rec-5's data, rec-5 deleted
	res, err := search(ix, q, ModeExact, 10, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		for i := 0; i < 10; i++ {
			if r.Ref == fmt.Sprintf("rec-%d", i) {
				t.Fatalf("deleted record %s in search results", r.Ref)
			}
		}
	}
	// A second reopen replays the same WAL suffix over the same
	// snapshot and must converge to the same state (idempotence).
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.Len() != 50 || again.Has("rec-3") || !again.Has("rec-59") {
		t.Fatalf("second replay diverged: len=%d", again.Len())
	}
}

// NewEngineSketch sketches data with the default engine parameters so
// tests can build queries without holding an engine.
func NewEngineSketch(t *testing.T, name string, data []byte) *Sketch {
	t.Helper()
	eng, err := NewEngine(Options{IndexName: "sketcher"})
	if err != nil {
		t.Fatal(err)
	}
	return eng.Sketcher().Sketch(Record{Name: name, Data: data})
}

// TestWALTornTail: a crash mid-append leaves a torn final frame. The
// scanner must keep the valid prefix, truncate the tail, and report
// the torn bytes — never reject the whole log.
func TestWALTornTail(t *testing.T) {
	// nonEmptyWALs returns the shard WALs holding at least one frame.
	nonEmptyWALs := func(t *testing.T, dir string) []string {
		t.Helper()
		paths, err := filepath.Glob(filepath.Join(dir, "wal", "shard-*.wal"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("no WAL files in %s: %v", dir, err)
		}
		var out []string
		for _, p := range paths {
			if fi, err := os.Stat(p); err == nil && fi.Size() > walHeaderSize {
				out = append(out, p)
			}
		}
		if len(out) == 0 {
			t.Fatal("no WAL carries frames")
		}
		return out
	}

	t.Run("garbage tail", func(t *testing.T) {
		dir := t.TempDir()
		eng := walEngine(t, dir, 8)
		for i := 8; i < 20; i++ {
			if _, err := addRecord(eng, Record{Name: fmt.Sprintf("rec-%d", i), Data: benchData(256, int64(i+1))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Index().Close(); err != nil {
			t.Fatal(err)
		}
		// A torn frame: a length word promising more than is there.
		garbage := []byte{0xFF, 0xFF, 0xFF, 0x7F, 0xde, 0xad, 0xbe}
		f, err := os.OpenFile(nonEmptyWALs(t, dir)[0], os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(garbage); err != nil {
			t.Fatal(err)
		}
		f.Close()

		ix, err := Open(dir)
		if err != nil {
			t.Fatalf("Open with torn tail: %v", err)
		}
		defer ix.Close()
		if ix.Len() != 20 {
			t.Fatalf("torn tail lost whole frames: len=%d, want 20", ix.Len())
		}
		if ws := ix.WAL(); ws == nil || ws.TornBytes != uint64(len(garbage)) {
			t.Fatalf("WAL stats = %+v, want %d torn bytes", ws, len(garbage))
		}
	})

	t.Run("chopped frame", func(t *testing.T) {
		dir := t.TempDir()
		eng := walEngine(t, dir, 8)
		for i := 8; i < 20; i++ {
			if _, err := addRecord(eng, Record{Name: fmt.Sprintf("rec-%d", i), Data: benchData(256, int64(i+1))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Index().Close(); err != nil {
			t.Fatal(err)
		}
		// Chop one byte off a WAL's final frame: exactly that frame (one
		// acked add) is lost, everything before it survives.
		path := nonEmptyWALs(t, dir)[0]
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()-1); err != nil {
			t.Fatal(err)
		}

		ix, err := Open(dir)
		if err != nil {
			t.Fatalf("Open with chopped frame: %v", err)
		}
		defer ix.Close()
		if ix.Len() != 19 {
			t.Fatalf("chopped frame: len=%d, want 19 (one frame lost)", ix.Len())
		}
		if ws := ix.WAL(); ws == nil || ws.TornBytes == 0 {
			t.Fatalf("WAL stats = %+v, want torn bytes reported", ws)
		}
	})
}

// TestDeleteSemantics covers the tombstone API on both layouts:
// Delete reports presence, Has/Get/Len see the removal immediately,
// re-adding a deleted name is legal, and deleted records never appear
// in search results.
func TestDeleteSemantics(t *testing.T) {
	tiered, plain := tieredEngines(t, 60, 16)
	for _, eng := range []*Engine{tiered, plain} {
		ix := eng.Index()
		if _, err := ix.Delete(""); err == nil {
			t.Fatal("Delete of empty name succeeded")
		}
		if ok, err := eng.Delete("rec-7"); !ok || err != nil {
			t.Fatalf("delete rec-7 = %v, %v", ok, err)
		}
		if ok, err := eng.Delete("rec-7"); ok || err != nil {
			t.Fatalf("second delete rec-7 = %v, %v, want false", ok, err)
		}
		if ix.Has("rec-7") || ix.Get("rec-7") != nil || ix.Len() != 59 {
			t.Fatalf("rec-7 still visible after delete: len=%d", ix.Len())
		}
		// The strongest attractor: rec-7's own payload.
		q := eng.Sketcher().Sketch(Record{Name: "q", Data: benchData(256, 8)})
		res, err := search(ix, q, ModeExact, 60, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.Ref == "rec-7" {
				t.Fatal("deleted rec-7 in search results")
			}
		}
		// Re-add under the same name.
		if ok, err := addRecord(eng, Record{Name: "rec-7", Data: benchData(256, 8)}); !ok || err != nil {
			t.Fatalf("re-add rec-7 = %v, %v", ok, err)
		}
		if !ix.Has("rec-7") || ix.Len() != 60 {
			t.Fatalf("re-added rec-7 invisible: len=%d", ix.Len())
		}
		dead, rows := ix.Tombstones()
		if dead == 0 || rows <= ix.Len() {
			t.Fatalf("tombstones = %d/%d, want dead rows behind %d live records", dead, rows, ix.Len())
		}
	}
}

// TestCompactionEquivalence: compaction (SaveDir's threshold pass, the
// only compaction there is) reclaims tombstoned rows without changing
// anything observable — exact and LSH results are identical before and
// after, equal to those of an in-memory index that never compacts, and
// survive a reload; deleted records appear nowhere.
func TestCompactionEquivalence(t *testing.T) {
	tiered, plain := tieredEngines(t, 300, 32)
	// Every other record: each stripe ends well past the 25% threshold.
	for i := 0; i < 300; i += 2 {
		name := fmt.Sprintf("rec-%d", i)
		if ok, err := tiered.Delete(name); !ok || err != nil {
			t.Fatalf("tiered delete %s: %v, %v", name, ok, err)
		}
		if ok, err := plain.Delete(name); !ok || err != nil {
			t.Fatalf("plain delete %s: %v, %v", name, ok, err)
		}
	}
	queries := []*Sketch{
		plain.Sketcher().Sketch(Record{Name: "q1", Data: benchData(256, 4)}),
		plain.Sketcher().Sketch(Record{Name: "q2", Data: benchData(256, 12)}),
		plain.Sketcher().Sketch(Record{Name: "q3", Data: benchData(256, 77777)}),
	}
	answers := func(ix *Index) (out [][]Result) {
		t.Helper()
		for _, mode := range modes {
			for _, q := range queries {
				res, err := search(ix, q, mode, 20, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range res {
					var n int
					if fmt.Sscanf(r.Ref, "rec-%d", &n); n%2 == 0 {
						t.Fatalf("deleted %s in results", r.Ref)
					}
				}
				out = append(out, res)
			}
		}
		return out
	}
	same := func(what string, got, want [][]Result) {
		t.Helper()
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("%s: answer %d differs:\n got %+v\nwant %+v", what, i, got[i], want[i])
			}
		}
	}
	ix := tiered.Index()
	before := answers(ix)
	same("tiered vs in-memory before compaction", before, answers(plain.Index()))
	if err := ix.SaveDir(); err != nil {
		t.Fatal(err)
	}
	if dead, rows := ix.Tombstones(); dead != 0 || rows != 150 {
		t.Fatalf("after the compacting snapshot: %d dead of %d rows, want 0 of 150", dead, rows)
	}
	same("across compaction", answers(ix), before)
	loaded, err := Open(ix.DataDir())
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Len() != ix.Len() {
		t.Fatalf("reload after compaction: len=%d, want %d", loaded.Len(), ix.Len())
	}
	same("across reload", answers(loaded), before)
}

// TestSaveDirAutoCompacts: once the tombstone ratio crosses the
// threshold, the next snapshot compacts as it seals.
func TestSaveDirAutoCompacts(t *testing.T) {
	dir := t.TempDir()
	eng := walEngine(t, dir, 100)
	defer eng.Index().Close()
	for i := 0; i < 40; i++ {
		if ok, err := eng.Delete(fmt.Sprintf("rec-%d", i)); !ok || err != nil {
			t.Fatalf("delete rec-%d: %v, %v", i, ok, err)
		}
	}
	if err := eng.Index().SaveDir(); err != nil {
		t.Fatal(err)
	}
	if dead, _ := eng.Index().Tombstones(); dead != 0 {
		t.Fatalf("snapshot above threshold left %d dead rows", dead)
	}
	st := eng.Stats()
	if st.Compactions == 0 || st.CompactedRows != 40 {
		t.Fatalf("compaction counters = %d/%d, want >0/40", st.Compactions, st.CompactedRows)
	}
}

// TestOpenRejectsNonIndexes: Open takes an index directory only and
// rejects everything else with a diagnosable error — a regular file is
// pointed at the importer.
func TestOpenRejectsNonIndexes(t *testing.T) {
	dir := t.TempDir()
	walEngine(t, dir, 10).Index().Close()
	ix, err := Open(dir)
	if err != nil || ix.Len() != 10 {
		t.Fatalf("Open(dir) = %v", err)
	}
	ix.Close()
	path := filepath.Join(t.TempDir(), "index.json")
	if err := os.WriteFile(path, []byte(`{"meta":{"format":4},"sketches":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil || !strings.Contains(err.Error(), "engine import") {
		t.Fatalf("Open of a regular file: err = %v, want a pointer to engine import", err)
	}
	if _, err := Open(t.TempDir()); err == nil || !strings.Contains(err.Error(), ManifestFile) {
		t.Fatalf("Open of an empty directory: err = %v, want a missing-manifest error", err)
	}
	if _, err := Open(filepath.Join(dir, "nope")); err == nil {
		t.Fatal("Open of a missing path succeeded")
	}
}

// walGolden is, byte for byte, the file the last commit with its own
// frame code in wal.go wrote for shard 3 after appendAdd(7, "a.txt", 5,
// {1, 2^64-2}), appendDelete(8, "a.txt"), sync. Index directories in
// the field hold such files; the framelog-backed writer and reader must
// agree with them.
const walGolden = "534b574c010000000300000000000000" +
	"2a00000083be8a38" + "07000000000000000105000000612e74787405000000020000000100000000000000feffffffffffffff" +
	"1200000094f4e139" + "08000000000000000205000000612e747874"

func TestWALGoldenBytes(t *testing.T) {
	golden, err := hex.DecodeString(walGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := []walOp{
		{seq: 7, op: walOpAdd, name: "a.txt", shingles: 5, sig: []uint64{1, 0xfffffffffffffffe}},
		{seq: 8, op: walOpDelete, name: "a.txt"},
	}

	dir := t.TempDir()
	w, _, _, err := openWAL(dir, 3, &tierState{})
	if err != nil {
		t.Fatal(err)
	}
	w.appendAdd(want[0].seq, want[0].name, want[0].shingles, want[0].sig)
	w.appendDelete(want[1].seq, want[1].name)
	if err := w.sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if got, _ := os.ReadFile(walPath(dir, 3)); !bytes.Equal(got, golden) {
		t.Fatalf("writer drifted from the on-disk format:\n got %x\nwant %x", got, golden)
	}

	dir = t.TempDir()
	if err := os.MkdirAll(filepath.Dir(walPath(dir, 3)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath(dir, 3), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	w, ops, torn, err := openWAL(dir, 3, &tierState{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if !reflect.DeepEqual(ops, want) || torn != 0 {
		t.Fatalf("reader: ops %+v, %d torn bytes; want %+v", ops, torn, want)
	}
	if frames, size := w.Depth(); frames != 2 || size != int64(len(golden)-walHeaderSize) {
		t.Fatalf("depth after open = %d frames, %d bytes", frames, size)
	}
	// Another shard's log, or a frame that passes its CRC and is not a
	// WAL body, is not replayed around: both are hard errors.
	os.Rename(walPath(dir, 3), walPath(dir, 4))
	if _, _, _, err := openWAL(dir, 4, &tierState{}); err == nil || !strings.Contains(err.Error(), "not this log's header") {
		t.Fatalf("shard 3's log opened as shard 4: err = %v", err)
	}
	w.Append(func(b []byte) []byte { return append(b, "not a WAL body"...) })
	if err := w.sync(); err != nil {
		t.Fatal(err)
	}
	os.Rename(walPath(dir, 4), walPath(dir, 3))
	if _, _, _, err := openWAL(dir, 3, &tierState{}); err == nil || !strings.Contains(err.Error(), "frame 2") {
		t.Fatalf("log with an undecodable frame opened: err = %v", err)
	}
}

// FuzzDecodeWALBody: the body decoder never panics, and accepts only
// bodies that are exactly what the writer produces for the decoded op.
func FuzzDecodeWALBody(f *testing.F) {
	golden, _ := hex.DecodeString(walGolden)
	f.Add(golden[24:66])
	f.Add(golden[74:])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		op, err := decodeWALBody(body)
		if err != nil {
			return
		}
		dir := t.TempDir()
		w, _, _, err := openWAL(dir, 0, &tierState{})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if op.op == walOpAdd {
			w.appendAdd(op.seq, op.name, op.shingles, op.sig)
		} else {
			w.appendDelete(op.seq, op.name)
		}
		if err := w.sync(); err != nil {
			t.Fatal(err)
		}
		if file, _ := os.ReadFile(walPath(dir, 0)); !bytes.Equal(file[walHeaderSize+8:], body) {
			t.Fatalf("decoded %+v from %x, which the writer encodes as %x", op, body, file[walHeaderSize+8:])
		}
	})
}

// TestWALAppendAllocFree: an append encodes straight into the log's
// pending buffer — no per-frame allocation or copy once the buffer has
// grown to its working size.
func TestWALAppendAllocFree(t *testing.T) {
	w, _, _, err := openWAL(t.TempDir(), 0, &tierState{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	sig := make([]uint64, DefaultSignatureSize)
	fill := func() {
		for i := 0; i < 100; i++ {
			w.appendAdd(uint64(i), "some-record-name.txt", 40, sig)
			w.appendDelete(uint64(i), "some-record-name.txt")
		}
		if err := w.Reset(); err != nil { // empties the buffer, keeps its capacity
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(5, fill); allocs != 0 {
		t.Fatalf("200 appends allocated %v times, want 0", allocs)
	}
}

// TestOpenSealsWALTail: Open replays the WAL before it builds the posting
// table, so a reopened index holds its whole tail sealed — no delta — and
// LSH search finds tail records exactly as an exact scan does.
func TestOpenSealsWALTail(t *testing.T) {
	dir := t.TempDir()
	eng := walEngine(t, dir, 40)
	for i := 40; i < 80; i++ {
		if _, err := addRecord(eng, Record{Name: fmt.Sprintf("rec-%d", i), Data: benchData(256, int64(i+1))}); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{3, 45, 70} { // snapshot and tail rows alike
		if ok, err := eng.Delete(fmt.Sprintf("rec-%d", i)); !ok || err != nil {
			t.Fatalf("delete rec-%d = %v, %v", i, ok, err)
		}
	}
	sk := eng.Sketcher()
	if err := eng.Index().Close(); err != nil {
		t.Fatal(err)
	}
	ix, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if ws := ix.WAL(); ws == nil || ws.ReplayedFrames != 43 {
		t.Fatalf("WAL stats after reopen = %+v, want 43 replayed frames", ws)
	}
	if _, _, delta, _ := ix.posts.size(); delta != 0 {
		t.Fatalf("reopened index holds %d delta postings, want 0: the WAL tail was not sealed", delta)
	}
	for i := 40; i < 80; i++ {
		q := sk.Sketch(Record{Name: "q", Data: benchData(256, int64(i+1))})
		exact, err := search(ix, q, ModeExact, 5, 0.5, nil)
		if err != nil {
			t.Fatal(err)
		}
		lsh, err := search(ix, q, ModeLSH, 5, 0.5, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lsh, exact) {
			t.Fatalf("rec-%d: LSH answers %+v, exact %+v", i, lsh, exact)
		}
		if live := i != 45 && i != 70; live != (len(exact) > 0 && exact[0].Ref == fmt.Sprintf("rec-%d", i)) {
			t.Fatalf("rec-%d (live %v): exact answers %+v", i, live, exact)
		}
	}
}

// TestWALOneFsyncPerCommit: the index has one log, so a commit covering
// records on several stripes pays one fsync, and wal/ holds one file.
func TestWALOneFsyncPerCommit(t *testing.T) {
	dir := t.TempDir()
	eng := walEngine(t, dir, 8)
	defer eng.Index().Close()
	ix := eng.Index()
	var batch []*Sketch
	stripes := map[int]bool{}
	for i := 0; len(batch) < 3; i++ {
		name := fmt.Sprintf("fsync-%d", i)
		if si := shardFor(name, ix.ShardCount()); !stripes[si] {
			stripes[si] = true
			batch = append(batch, eng.Sketcher().Sketch(Record{Name: name, Data: benchData(256, int64(500+i))}))
		}
	}
	before := ix.WAL().Fsyncs
	if oks, err := eng.AddSketches(batch); err != nil || !slices.Equal(oks, []bool{true, true, true}) {
		t.Fatalf("AddSketches = %v, %v", oks, err)
	}
	if got := ix.WAL().Fsyncs - before; got != 1 {
		t.Fatalf("a commit over 3 stripes paid %d fsyncs, want 1", got)
	}
	if files := walFiles(t, dir); !slices.Equal(files, []string{"shard-0000.wal"}) {
		t.Fatalf("wal/ holds %v, want only shard-0000.wal", files)
	}
}

// walFiles lists the file names under dir's wal/ directory.
func walFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, walDirName))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		out = append(out, e.Name())
	}
	return out
}

// TestWALUpgradeFromStripeLogs: a directory an engine up to 0.13 wrote
// has one log per stripe, and a record's frames may sit in several of
// them. Open replays every stripe log in seq order, and the next SaveDir
// deletes them all before it resets the index's log.
func TestWALUpgradeFromStripeLogs(t *testing.T) {
	dir := t.TempDir()
	eng := walEngine(t, dir, 8)
	sk := func(name string, seed int64) *Sketch {
		return eng.Sketcher().Sketch(Record{Name: name, Data: benchData(256, seed)})
	}
	x, yOld, yNew := sk("x", 901), sk("y", 902), sk("y", 903)
	if err := eng.Index().Close(); err != nil {
		t.Fatal(err)
	}
	// The older engine's frames, seq order across files not file order:
	// replaying shard 0's file before shard 5's would leave y deleted.
	logStripe := func(si int, frames func(w *shardWAL)) {
		t.Helper()
		w, _, _, err := openWAL(dir, si, &tierState{})
		if err != nil {
			t.Fatal(err)
		}
		frames(w)
		if err := w.sync(); err != nil {
			t.Fatal(err)
		}
		w.Close()
	}
	logStripe(5, func(w *shardWAL) {
		w.appendAdd(1, x.Name, int32(x.Shingles), x.Signature)
		w.appendDelete(3, "y")
	})
	logStripe(0, func(w *shardWAL) {
		w.appendAdd(2, "y", int32(yOld.Shingles), yOld.Signature)
		w.appendAdd(4, "y", int32(yNew.Shingles), yNew.Signature)
	})

	// check opens dir and compares it with the state after every frame:
	// the snapshot's 8 records, y's re-add, and x unless it was deleted.
	check := func(xLive bool, replayed uint64, files []string) *Index {
		t.Helper()
		ix, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		want := 9
		if xLive {
			want++
		}
		if ix.Len() != want || ix.Has("x") != xLive {
			t.Fatalf("after replay: len %d, has x %v; want %d, %v", ix.Len(), ix.Has("x"), want, xLive)
		}
		if got := ix.Get("y"); got == nil || !slices.Equal(got.Signature, yNew.Signature) {
			t.Fatal("y does not hold its re-added signature: frames replayed out of seq order")
		}
		if ws := ix.WAL(); ws == nil || ws.ReplayedFrames != replayed {
			t.Fatalf("WAL stats %+v, want %d replayed frames", ws, replayed)
		}
		if got := walFiles(t, dir); !slices.Equal(got, files) {
			t.Fatalf("wal/ holds %v, want %v", got, files)
		}
		return ix
	}
	both := []string{"shard-0000.wal", "shard-0005.wal"}
	ix := check(true, 4, both)
	ticket := ix.WALTicket()
	if ok, err := ix.Delete("x"); !ok || err != nil {
		t.Fatalf("delete x = %v, %v", ok, err)
	}
	if err := ix.SyncWAL(ticket); err != nil {
		t.Fatal(err)
	}
	ix.Close()
	// Two opens with no SaveDir between them replay the old stripe log
	// twice, beside the delete in the index's log, and agree.
	check(false, 5, both).Close()
	// A SaveDir that stops between deleting the stripe logs and resetting
	// the index's log (here a stripe log cannot be deleted) must not have
	// reset it: the stripe log's add of x would replay without the delete.
	stripe5 := walPath(dir, 5)
	old, err := os.ReadFile(stripe5)
	if err != nil {
		t.Fatal(err)
	}
	ix = check(false, 5, both)
	if err := os.Remove(stripe5); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(stripe5, "busy"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := ix.SaveDir(); err == nil {
		t.Fatal("SaveDir deleted a non-empty directory in place of a stripe log")
	}
	ix.Close()
	if err := os.RemoveAll(stripe5); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stripe5, old, 0o644); err != nil {
		t.Fatal(err)
	}
	ix = check(false, 5, both)
	if err := ix.SaveDir(); err != nil {
		t.Fatal(err)
	}
	if got := walFiles(t, dir); !slices.Equal(got, []string{"shard-0000.wal"}) {
		t.Fatalf("after SaveDir wal/ holds %v, want only shard-0000.wal", got)
	}
	ix.Close()
	check(false, 0, []string{"shard-0000.wal"}).Close()
}
