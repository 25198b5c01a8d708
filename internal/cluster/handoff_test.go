package cluster

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sketchengine/internal/fault"
	"sketchengine/internal/framelog"
)

const goldenAddr = "127.0.0.1:9001"

// hintGolden is, byte for byte, the file the last commit with its own
// frame code in handoff.go wrote for goldenAddr after enqueueing
// goldenHints one at a time. -hints-dir directories in the field hold
// such files; the framelog-backed writer and reader must agree with them.
const hintGolden = "534b484c01000000" + "0e000000" + "3132372e302e302e313a39303031" +
	"1d0000002d96b998" + "1581e97df41022110105000000612e747874070000007061796c6f6164" +
	"160000007d5ab793" + "1681e97df41022110205000000612e74787400000000"

var goldenHints = []hint{
	{op: hintOpAdd, name: "a.txt", data: "payload", expires: 1234567890123456789},
	{op: hintOpDelete, name: "a.txt", expires: 1234567890123456790},
}

func TestHintGoldenBytes(t *testing.T) {
	golden, err := hex.DecodeString(hintGolden)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, err := newHintStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range goldenHints {
		if err := s.enqueue(goldenAddr, h); err != nil {
			t.Fatal(err)
		}
	}
	s.close()
	path := hintPath(dir, goldenAddr)
	if filepath.Base(path) != "127.0.0.1:9001-d1ffc5b745d30522.hint" {
		t.Fatalf("hint file name drifted: %s", path)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, golden) {
		t.Fatalf("writer drifted from the on-disk format:\n got %x\nwant %x", got, golden)
	}

	dir = t.TempDir()
	if err := os.WriteFile(hintPath(dir, goldenAddr), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = newHintStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if got := s.take(goldenAddr); !reflect.DeepEqual(got, goldenHints) {
		t.Fatalf("reader: %+v, want %+v", got, goldenHints)
	}
	// Committing the first hint rewrites the file to header + the second.
	if err := s.commit(goldenAddr, 1); err != nil {
		t.Fatal(err)
	}
	want := append(bytes.Clone(golden[:26]), golden[26+8+29:]...)
	if got, _ := os.ReadFile(hintPath(dir, goldenAddr)); !bytes.Equal(got, want) {
		t.Fatalf("file after commit:\n got %x\nwant %x", got, want)
	}
}

// TestHintFileShorterThanHeader: a crash between creating a hint file
// and syncing its first batch leaves it empty or with part of a header.
// Nothing in such a file was ever acked, so it is an empty log — it must
// not stop the coordinator from starting.
func TestHintFileShorterThanHeader(t *testing.T) {
	for _, content := range []string{"", "SKHL\x01\x00"} {
		dir := t.TempDir()
		if err := os.WriteFile(hintPath(dir, "h1:1"), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		coord, err := New(Config{
			Backends: []string{"h1:1", "h2:1", "h3:1"}, Replication: 2,
			HealthInterval: -1, HintInterval: -1, HintsDir: dir,
		})
		if err != nil {
			t.Fatalf("New over a %d-byte hint file: %v", len(content), err)
		}
		if d := coord.hints.depth(); d != 0 {
			t.Errorf("pending hints = %d, want 0", d)
		}
		// The file is usable again: a hint enqueued now survives a restart.
		if err := coord.hints.enqueue("h1:1", goldenHints[0]); err != nil {
			t.Fatal(err)
		}
		coord.Close()
		s, err := newHintStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if d := s.depthFor("h1:1"); d != 1 {
			t.Errorf("hints after restart = %d, want 1", d)
		}
		s.close()
	}
}

// TestHintFileRejected: a file that is not this backend's hint log —
// wrong magic, a version this build does not know, another backend's
// header, a name hintPath would not produce — is a hard error, as for
// the core WAL.
func TestHintFileRejected(t *testing.T) {
	golden, _ := hex.DecodeString(hintGolden)
	for _, file := range []struct {
		name    string
		content []byte
		want    string
	}{
		{filepath.Base(hintPath("", goldenAddr)), append([]byte("SKWL"), golden[4:]...), `starts with "SKWL`},
		{filepath.Base(hintPath("", goldenAddr)), append([]byte("SKHL\x02"), golden[5:]...), `starts with "SKHL\x02`},
		{filepath.Base(hintPath("", "127.0.0.1:9002")), golden, `9001", not this log's header`},
		{"stray.hint", golden, "not named"},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, file.name), file.content, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := newHintStore(dir); err == nil || !strings.Contains(err.Error(), file.want) {
			t.Errorf("%s: err = %v, want %q in it", file.name, err, file.want)
		}
	}
}

// TestHintUndecodableBody: a frame that passes its CRC but is not a hint
// is skipped and counted as dropped; the hints behind it still load.
// (The core WAL refuses to open over such a frame: it may be the only
// copy of an acked write. A hint never is.)
func TestHintUndecodableBody(t *testing.T) {
	dir := t.TempDir()
	golden, _ := hex.DecodeString(hintGolden)
	log, _, _, err := framelog.Open(hintPath(dir, goldenAddr), golden[:26], "", "")
	if err != nil {
		t.Fatal(err)
	}
	appendHint(log, goldenHints[0])
	log.Append(func(b []byte) []byte { return append(b, "not a hint body"...) })
	appendHint(log, goldenHints[1])
	if _, err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	log.Close()

	s, err := newHintStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if got := s.take(goldenAddr); !reflect.DeepEqual(got, goldenHints) {
		t.Fatalf("loaded %+v, want both hints around the bad frame", got)
	}
	if d := s.dropped.Load(); d != 1 {
		t.Fatalf("dropped = %d, want 1", d)
	}
}

// TestHintShortWrite: a short write while enqueueing fails that enqueue
// but leaves no torn frame for later batches to be synced behind: after
// a restart every batch whose enqueue succeeded is back.
func TestHintShortWrite(t *testing.T) {
	dir := t.TempDir()
	s, err := newHintStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.enqueue("h1:1", hint{op: hintOpAdd, name: "before", data: "x"}); err != nil {
		t.Fatal(err)
	}
	p, err := fault.Parse("hint.write:torn", 1)
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(p)
	defer fault.Disable()
	if err := s.enqueue("h1:1", hint{op: hintOpAdd, name: "torn", data: "x"}); err == nil {
		t.Fatal("enqueue through a torn write succeeded")
	}
	fault.Disable()
	if err := s.enqueue("h1:1", hint{op: hintOpAdd, name: "after", data: "x"}); err != nil {
		t.Fatal(err)
	}
	// In memory the failed hint is still queued (best effort); on disk
	// only what was synced is.
	if d := s.depthFor("h1:1"); d != 3 {
		t.Fatalf("in-memory depth = %d, want 3", d)
	}
	s.close()
	s, err = newHintStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	var names []string
	for _, h := range s.take("h1:1") {
		names = append(names, h.name)
	}
	if !reflect.DeepEqual(names, []string{"before", "after"}) {
		t.Fatalf("hints after restart = %v, want [before after]", names)
	}
}

// FuzzDecodeHintBody: the body decoder never panics, and accepts only
// bodies that are exactly what the writer produces for the decoded hint.
func FuzzDecodeHintBody(f *testing.F) {
	golden, _ := hex.DecodeString(hintGolden)
	f.Add(golden[34:63])
	f.Add(golden[71:])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		h, ok := decodeHintBody(body)
		if !ok {
			return
		}
		path := filepath.Join(t.TempDir(), "log")
		log, _, _, err := framelog.Open(path, []byte("SKHL\x01\x00\x00\x00"), "", "")
		if err != nil {
			t.Fatal(err)
		}
		defer log.Close()
		appendHint(log, h)
		if _, err := log.Sync(); err != nil {
			t.Fatal(err)
		}
		if file, _ := os.ReadFile(path); !bytes.Equal(file[16:], body) {
			t.Fatalf("decoded %+v from %x, which the writer encodes as %x", h, body, file[16:])
		}
	})
}
