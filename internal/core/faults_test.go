package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"sketchengine/internal/fault"
)

// These tests drive the disk faultpoints (wal.write, wal.fsync,
// segment.seal, manifest.commit, dir.fsync) and pin the durability contract under
// injected failures: a failed ack never lies — the caller saw the
// error — and the index stays loadable with every previously-acked
// record intact. Un-acked writes may or may not survive (acked state
// is a lower bound, exactly like a real crash).

// TestWALWriteFault: an injected write failure — before any byte is
// written, or torn: after half the buffer landed — drops the buffered
// frame, so the ack fails, and breaks the log: the next commit is a
// snapshot, which holds the failed record too (it stayed in memory).
// Every record acked before and after it survives a reopen, and the
// failed write leaves no bytes in the log.
func TestWALWriteFault(t *testing.T) {
	for _, kind := range []string{fault.KindFailOnce, fault.KindTorn} {
		t.Run(kind, func(t *testing.T) {
			dir := t.TempDir()
			eng := walEngine(t, dir, 8)

			p, err := fault.Parse("wal.write:"+kind, 1)
			if err != nil {
				t.Fatal(err)
			}
			fault.Enable(p)
			defer fault.Disable()

			_, err = addRecord(eng, Record{Name: "rec-8", Data: benchData(256, 9)})
			var inj *fault.InjectedError
			if !errors.As(err, &inj) || inj.Point != "wal.write" {
				t.Fatalf("add through a wal.write fault = %v, want injected error", err)
			}
			// The fault is over (fail-once consumed itself): the next ack
			// is clean.
			fault.Disable()
			if _, err := addRecord(eng, Record{Name: "rec-9", Data: benchData(256, 10)}); err != nil {
				t.Fatalf("add after the fault cleared: %v", err)
			}
			if err := eng.Index().Close(); err != nil {
				t.Fatal(err)
			}

			ix, err := Open(dir)
			if err != nil {
				t.Fatalf("Open after an injected write failure: %v", err)
			}
			defer ix.Close()
			for i := 0; i < 8; i++ {
				if !ix.Has(fmt.Sprintf("rec-%d", i)) {
					t.Errorf("acked rec-%d lost", i)
				}
			}
			if !ix.Has("rec-9") {
				t.Error("rec-9, acked after the fault, lost")
			}
			if !ix.Has("rec-8") {
				t.Error("rec-8, in memory when rec-9's commit snapshotted, lost")
			}
			if ix.Len() != 10 {
				t.Errorf("recovered %d records, want 10", ix.Len())
			}
			if ws := ix.WAL(); ws == nil || ws.TornBytes != 0 || ws.ReplayedFrames != 0 {
				t.Errorf("WAL stats = %+v: the failed write left bytes in the log, or no snapshot followed it", ws)
			}
		})
	}
}

// TestWALShortWriteKeepsLaterAcks: a short write (ENOSPC or EIO after
// part of the buffer reached the file) must not strand a torn frame in
// the middle of a log. Every later acked frame would be appended and
// fsynced behind it, and the next Open would stop its scan at the torn
// frame and truncate them all away without an error. Each short write
// is followed by a commit that snapshots and one that flushes again.
func TestWALShortWriteKeepsLaterAcks(t *testing.T) {
	dir := t.TempDir()
	eng := walEngine(t, dir, 0)
	ack := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if _, err := addRecord(eng, Record{Name: fmt.Sprintf("rec-%d", i), Data: benchData(256, int64(i+1))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	ack(0, 9)

	for at := 9; at < 30; at += 7 {
		p, err := fault.Parse("wal.write:torn", 1)
		if err != nil {
			t.Fatal(err)
		}
		fault.Enable(p)
		name := fmt.Sprintf("unacked-%d", at)
		if _, err := addRecord(eng, Record{Name: name, Data: benchData(256, int64(1000+at))}); err == nil {
			t.Fatalf("add of %s through a torn write was acked", name)
		}
		fault.Disable()
		ack(at, at+7)
	}
	// The crash: handles dropped, no snapshot.
	if err := eng.Index().Close(); err != nil {
		t.Fatal(err)
	}
	ix, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for i := 0; i < 30; i++ {
		if !ix.Has(fmt.Sprintf("rec-%d", i)) {
			t.Errorf("acked rec-%d lost behind a torn frame", i)
		}
	}
}

// TestWALSharedSyncFailure: a log that fails a write drops every frame
// buffered in it, so a failed sweep fails every writer it may have
// covered, not only the one that ran it. Two writers append to one
// shard's log; the write fault is armed for the first barrier only. If
// the second barrier answered nil — it finds the buffer empty — its
// record would be acked and gone after a reopen.
func TestWALSharedSyncFailure(t *testing.T) {
	dir := t.TempDir()
	eng := walEngine(t, dir, 8)
	ix := eng.Index()
	sk := func(name string, seed int64) *Sketch {
		return eng.Sketcher().Sketch(Record{Name: name, Data: benchData(256, seed)})
	}
	// Two names of one shard, so both frames sit in the log that fails.
	names := []string{"shared-0"}
	for i := 1; len(names) < 2; i++ {
		if n := fmt.Sprintf("shared-%d", i); shardFor(n, ix.ShardCount()) == shardFor(names[0], ix.ShardCount()) {
			names = append(names, n)
		}
	}

	first, second := ix.WALTicket(), ix.WALTicket()
	for i, n := range names {
		if ok, err := ix.Add(sk(n, int64(100+i))); !ok || err != nil {
			t.Fatalf("add %s = %v, %v", n, ok, err)
		}
	}
	p, err := fault.Parse("wal.write:error=1", 1)
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(p)
	defer fault.Disable()
	var inj *fault.InjectedError
	if err := ix.SyncWAL(first); !errors.As(err, &inj) || inj.Point != "wal.write" {
		t.Fatalf("first barrier = %v, want the injected write error", err)
	}
	fault.Disable()
	if err := ix.SyncWAL(second); !errors.As(err, &inj) {
		t.Fatalf("second barrier = %v: acked a record whose frame the failed sweep dropped", err)
	}
	// A writer that starts after the failed sweep ended is not failed by it.
	if _, err := addRecord(eng, Record{Name: "after", Data: benchData(256, 200)}); err != nil {
		t.Fatalf("add after the failed sweep: %v", err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	// Neither unacked record is required after a reopen (nor forbidden: a
	// snapshot may have covered it); everything acked is.
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	for i := 0; i < 8; i++ {
		if !reopened.Has(fmt.Sprintf("rec-%d", i)) {
			t.Errorf("acked rec-%d lost", i)
		}
	}
	if !reopened.Has("after") {
		t.Error("the record acked after the failed sweep is lost")
	}
}

// TestWALFsyncFault: an injected fsync failure fails the ack. The
// frame may have reached the file (fsync durability is exactly what
// was not confirmed), so the failed record is allowed to reappear —
// but every acked record must.
func TestWALFsyncFault(t *testing.T) {
	dir := t.TempDir()
	eng := walEngine(t, dir, 8)

	p, err := fault.Parse("wal.fsync:fail-once", 1)
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(p)
	defer fault.Disable()

	_, err = addRecord(eng, Record{Name: "rec-8", Data: benchData(256, 9)})
	var inj *fault.InjectedError
	if !errors.As(err, &inj) || inj.Point != "wal.fsync" {
		t.Fatalf("add through a wal.fsync fault = %v, want injected error", err)
	}
	if _, err := addRecord(eng, Record{Name: "rec-9", Data: benchData(256, 10)}); err != nil {
		t.Fatalf("add after the fault cleared: %v", err)
	}
	if err := eng.Index().Close(); err != nil {
		t.Fatal(err)
	}

	ix, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after an injected fsync failure: %v", err)
	}
	defer ix.Close()
	for i := 0; i < 8; i++ {
		if !ix.Has(fmt.Sprintf("rec-%d", i)) {
			t.Errorf("acked rec-%d lost", i)
		}
	}
	if !ix.Has("rec-9") {
		t.Error("rec-9, acked after the fault, lost")
	}
	if p.Counters()["wal.fsync:fail-once"] != 1 {
		t.Errorf("fault counters = %v, want one wal.fsync injection", p.Counters())
	}
}

// TestSnapshotFaults: an injected failure in the snapshot path —
// sealing a segment or committing the manifest — fails SaveDir without
// corrupting anything: the live index keeps serving, a retried
// snapshot succeeds, and a reopen recovers every acked record.
func TestSnapshotFaults(t *testing.T) {
	for _, point := range []string{"segment.seal", "manifest.commit"} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			eng := walEngine(t, dir, 8)
			for i := 8; i < 20; i++ {
				if _, err := addRecord(eng, Record{Name: fmt.Sprintf("rec-%d", i), Data: benchData(256, int64(i+1))}); err != nil {
					t.Fatal(err)
				}
			}

			p, err := fault.Parse(point+":fail-once", 1)
			if err != nil {
				t.Fatal(err)
			}
			fault.Enable(p)
			defer fault.Disable()

			err = eng.Index().SaveDir()
			var inj *fault.InjectedError
			if !errors.As(err, &inj) || inj.Point != point {
				t.Fatalf("SaveDir through a %s fault = %v, want injected error", point, err)
			}
			// The live index is unharmed: mutations and a retried snapshot
			// both succeed.
			if _, err := addRecord(eng, Record{Name: "rec-20", Data: benchData(256, 21)}); err != nil {
				t.Fatalf("add after failed snapshot: %v", err)
			}
			if err := eng.Index().SaveDir(); err != nil {
				t.Fatalf("retried SaveDir: %v", err)
			}
			if err := eng.Index().Close(); err != nil {
				t.Fatal(err)
			}

			ix, err := Open(dir)
			if err != nil {
				t.Fatalf("Open after a failed-then-retried snapshot: %v", err)
			}
			defer ix.Close()
			if ix.Len() != 21 {
				t.Fatalf("recovered %d records, want 21", ix.Len())
			}
			for i := 0; i < 21; i++ {
				if !ix.Has(fmt.Sprintf("rec-%d", i)) {
					t.Errorf("acked rec-%d lost across the failed snapshot", i)
				}
			}
		})
	}
}

// TestDirFsyncFault: a snapshot's directory fsyncs come before the log
// is reset, so a power loss cannot keep the old manifest beside an
// emptied log. A failed one fails SaveDir with the log still holding
// every frame logged since the last snapshot, and a reopen recovers
// every acked mutation. With adds pending, the first fsync is the one
// of segments/ that makes the sealed segments durable; with only a
// delete, the manifest's.
func TestDirFsyncFault(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Engine) error
		want   map[string]bool
	}{
		{"adds", func(eng *Engine) error {
			for i := 8; i < 12; i++ {
				if _, err := addRecord(eng, Record{Name: fmt.Sprintf("rec-%d", i), Data: benchData(256, int64(i+1))}); err != nil {
					return err
				}
			}
			return nil
		}, map[string]bool{"rec-0": true, "rec-8": true, "rec-11": true}},
		{"delete", func(eng *Engine) error {
			_, err := eng.Delete("rec-3")
			return err
		}, map[string]bool{"rec-0": true, "rec-3": false, "rec-7": true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			eng := walEngine(t, dir, 8)
			if err := tc.mutate(eng); err != nil {
				t.Fatal(err)
			}
			frames := eng.Index().WAL().Frames
			if frames == 0 {
				t.Fatal("no frames logged past the snapshot")
			}

			p, err := fault.Parse("dir.fsync:fail-once", 1)
			if err != nil {
				t.Fatal(err)
			}
			fault.Enable(p)
			defer fault.Disable()
			err = eng.Index().SaveDir()
			var inj *fault.InjectedError
			if !errors.As(err, &inj) || inj.Point != "dir.fsync" {
				t.Fatalf("SaveDir through a dir.fsync fault = %v, want injected error", err)
			}
			if got := eng.Index().WAL().Frames; got != frames {
				t.Fatalf("log holds %d frames after the failed snapshot, want %d", got, frames)
			}
			if err := eng.Index().Close(); err != nil {
				t.Fatal(err)
			}

			ix, err := Open(dir)
			if err != nil {
				t.Fatalf("Open after a failed directory fsync: %v", err)
			}
			defer ix.Close()
			for name, held := range tc.want {
				if ix.Has(name) != held {
					t.Errorf("%s held %v after reopen, want %v", name, !held, held)
				}
			}
		})
	}
}

// TestSyncWALFailStop: a record whose WAL write tore stays in memory, so
// its retry is skipped as present and logs nothing of its own; a delete
// whose write tore is gone from memory, so its retry finds nothing to
// delete. Either retry's ack would be lost with the next crash unless
// its commit snapshots instead of flushing an empty log. The add's
// retries race fresh adds, which queue behind that snapshot or follow
// it. Run under -race.
func TestSyncWALFailStop(t *testing.T) {
	dir := t.TempDir()
	eng := walEngine(t, dir, 8)
	torn := func(write func() error) {
		t.Helper()
		p, err := fault.Parse("wal.write:torn", 1)
		if err != nil {
			t.Fatal(err)
		}
		fault.Enable(p)
		defer fault.Disable()
		var inj *fault.InjectedError
		if err := write(); !errors.As(err, &inj) || inj.Point != "wal.write" {
			t.Fatalf("write through a torn wal.write = %v, want the injected error", err)
		}
	}
	rec := Record{Name: "rec-8", Data: benchData(256, 9)}
	torn(func() error { _, err := addRecord(eng, rec); return err })
	var wg sync.WaitGroup
	for i := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if added, err := addRecord(eng, rec); added || err != nil {
				t.Errorf("retried add = %v, %v; want skipped as present, and acked", added, err)
			}
			if _, err := addRecord(eng, Record{Name: fmt.Sprintf("fresh-%d", i), Data: benchData(256, int64(100+i))}); err != nil {
				t.Errorf("fresh add: %v", err)
			}
		}()
	}
	wg.Wait()
	torn(func() error { _, err := eng.Delete("rec-0"); return err })
	if deleted, err := eng.Delete("rec-0"); deleted || err != nil {
		t.Fatalf("retried delete = %v, %v; want nothing left to delete, and acked", deleted, err)
	}
	// The crash: handles dropped, no snapshot but the commits' own.
	if err := eng.Index().Close(); err != nil {
		t.Fatal(err)
	}
	ix, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if !ix.Has("rec-8") || ix.Has("rec-0") || ix.Len() != 12 {
		t.Fatalf("after a reopen: rec-8 held %v, rec-0 held %v, %d records; want the acked retries' state, 12 records",
			ix.Has("rec-8"), ix.Has("rec-0"), ix.Len())
	}
}
