package framelog

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sketchengine/internal/fault"
)

var testHeader = []byte("TEST\x01\x00\x00\x00meta")

func openTest(t testing.TB, path string) (*Log, [][]byte, int64) {
	t.Helper()
	l, bodies, torn := open(t, path, testHeader)
	t.Cleanup(func() { l.Close() })
	return l, bodies, torn
}

func open(t testing.TB, path string, header []byte) (*Log, [][]byte, int64) {
	t.Helper()
	l, bodies, torn, err := Open(path, header, "test.write", "test.fsync")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, bodies, torn
}

func appendBody[B string | []byte](l *Log, body B) {
	l.Append(func(b []byte) []byte { return append(b, body...) })
}

func appendSync(t testing.TB, l *Log, bodies ...string) {
	t.Helper()
	for _, b := range bodies {
		appendBody(l, b)
	}
	if _, err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

func wantBodies(t testing.TB, got [][]byte, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d bodies %q, want %d %q", len(got), got, len(want), want)
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Fatalf("body %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestLifecycle: append/sync/reopen round-trips, Depth counts pending
// and written frames alike, Reset empties in place, Rewrite replaces
// the contents with the pending frames.
func TestLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, bodies, torn := openTest(t, path)
	wantBodies(t, bodies)
	if torn != 0 {
		t.Fatalf("fresh log reports %d torn bytes", torn)
	}
	appendSync(t, l, "one", "")
	appendBody(l, "three")
	if frames, size := l.Depth(); frames != 3 || size != 3*frameHead+8 {
		t.Fatalf("Depth = %d frames, %d bytes; want 3, %d", frames, size, 3*frameHead+8)
	}
	appendSync(t, l)
	l.Close()

	l, bodies, torn = openTest(t, path)
	wantBodies(t, bodies, "one", "", "three")
	if frames, _ := l.Depth(); frames != 3 || torn != 0 {
		t.Fatalf("reopen: %d frames, %d torn bytes", frames, torn)
	}
	appendSync(t, l, "four")
	appendBody(l, "kept")
	appendBody(l, "also")
	if err := l.Rewrite(); err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	appendSync(t, l, "after")
	l.Close()
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("Rewrite left its temp file behind: %v", err)
	}

	l, bodies, _ = openTest(t, path)
	wantBodies(t, bodies, "kept", "also", "after")
	appendBody(l, "dropped")
	if err := l.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if frames, size := l.Depth(); frames != 0 || size != 0 {
		t.Fatalf("Depth after Reset = %d, %d", frames, size)
	}
	appendSync(t, l, "fresh")
	l.Close()
	_, bodies, _ = openTest(t, path)
	wantBodies(t, bodies, "fresh")
}

// TestOpenHeader: a file shorter than its header is an empty log (it
// was never synced behind an ack); a header that is someone else's is a
// hard error.
func TestOpenHeader(t *testing.T) {
	for _, short := range []string{"", "TES", string(testHeader[:len(testHeader)-1])} {
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, []byte(short), 0o644); err != nil {
			t.Fatal(err)
		}
		l, bodies, torn := openTest(t, path)
		wantBodies(t, bodies)
		if torn != int64(len(short)) {
			t.Errorf("%d-byte file: torn = %d", len(short), torn)
		}
		appendSync(t, l, "x")
		l.Close()
		_, bodies, _ = openTest(t, path)
		wantBodies(t, bodies, "x")
	}
	for _, hdr := range []string{"NOPE\x01\x00\x00\x00meta", "TEST\x02\x00\x00\x00meta", "TEST\x01\x00\x00\x00atem"} {
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, []byte(hdr+"trailing"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := Open(path, testHeader, "", ""); err == nil || !strings.Contains(err.Error(), "not this log's header") {
			t.Errorf("header %q: err = %v", hdr, err)
		}
		if raw, _ := os.ReadFile(path); string(raw) != hdr+"trailing" {
			t.Errorf("header %q: a rejected file was modified", hdr)
		}
	}
}

// TestTornTail: whatever a crash mid-write leaves after the last whole
// frame — a chopped frame, a length word past the end or past MaxBody, a
// CRC mismatch — ends the prefix, is reported and is cut off.
func TestTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := openTest(t, path)
	appendSync(t, l, "one", "two")
	l.Close()
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame := whole[len(whole)-frameHead-3:] // "two", framed
	flipped := bytes.Clone(frame)
	flipped[len(flipped)-1] ^= 1
	for name, tail := range map[string][]byte{
		"chopped frame":    frame[:len(frame)-1],
		"short head":       frame[:5],
		"length past end":  {0xFF, 0xFF, 0xFF, 0x07, 0xde, 0xad, 0xbe, 0xef, 1},
		"length over cap":  {0x01, 0x00, 0x00, 0x08, 0, 0, 0, 0},
		"crc mismatch":     flipped,
		"torn then a good": append(bytes.Clone(frame[:len(frame)-1]), frame...),
	} {
		if err := os.WriteFile(path, append(bytes.Clone(whole), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		l, bodies, torn := openTest(t, path)
		wantBodies(t, bodies, "one", "two")
		if torn != int64(len(tail)) {
			t.Errorf("%s: torn = %d, want %d", name, torn, len(tail))
		}
		appendSync(t, l, "three")
		l.Close()
		_, bodies, torn = openTest(t, path)
		wantBodies(t, bodies, "one", "two", "three")
		if torn != 0 {
			t.Errorf("%s: second open still reports %d torn bytes", name, torn)
		}
		os.WriteFile(path, whole, 0o644)
	}
}

// TestShortWriteRollsBack: a write that fails after part of the buffer
// reached the file must not leave that part in the log — frames synced
// and acked after it would sit behind a torn frame, and the next Open
// would cut them off with it.
func TestShortWriteRollsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := openTest(t, path)
	appendSync(t, l, "acked-1", "acked-2")
	before, _ := os.Stat(path)

	p, err := fault.Parse("test.write:torn", 1)
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(p)
	defer fault.Disable()
	appendBody(l, "lost-1")
	appendBody(l, "lost-2")
	var inj *fault.InjectedError
	if _, err := l.Sync(); !errors.As(err, &inj) || inj.Kind != fault.KindTorn {
		t.Fatalf("Sync through a torn write = %v, want the injected error", err)
	}
	fault.Disable()
	if after, _ := os.Stat(path); after.Size() != before.Size() {
		t.Fatalf("file is %d bytes after a failed write, want the %d before it", after.Size(), before.Size())
	}
	if frames, _ := l.Depth(); frames != 2 {
		t.Fatalf("Depth counts %d frames after a failed write, want 2", frames)
	}
	appendSync(t, l, "acked-3", "acked-4")
	l.Close()
	_, bodies, torn := openTest(t, path)
	wantBodies(t, bodies, "acked-1", "acked-2", "acked-3", "acked-4")
	if torn != 0 {
		t.Fatalf("reopen found %d torn bytes", torn)
	}
}

// TestFailedRollbackRefusesWrites: when the write and the truncate that
// should undo it both fail, the file's end is unknown, so every later
// Sync fails until Rewrite (or Reset) gives the log a known end again.
func TestFailedRollbackRefusesWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := openTest(t, path)
	appendSync(t, l, "acked")
	rw := l.f
	defer rw.Close()
	ro, err := os.Open(path) // read-only: WriteAt and Truncate both fail
	if err != nil {
		t.Fatal(err)
	}
	l.f = ro
	appendBody(l, "lost")
	if _, err := l.Sync(); err == nil {
		t.Fatal("Sync on a read-only handle succeeded")
	}
	appendBody(l, "refused")
	if _, err := l.Sync(); err == nil || !strings.Contains(err.Error(), "failed rollback") {
		t.Fatalf("Sync after a failed rollback = %v, want a refusal", err)
	}
	appendBody(l, "acked")
	if err := l.Rewrite(); err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	appendSync(t, l, "again")
	l.Close()
	_, bodies, _ := openTest(t, path)
	wantBodies(t, bodies, "acked", "again")
}

// TestFsyncFault: an fsync failure fails the Sync but keeps the frames,
// which were written whole.
func TestFsyncFault(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := openTest(t, path)
	p, err := fault.Parse("test.fsync:fail-once", 1)
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(p)
	defer fault.Disable()
	appendBody(l, "unacked")
	if _, err := l.Sync(); err == nil {
		t.Fatal("Sync through an fsync fault succeeded")
	}
	appendSync(t, l, "acked")
	l.Close()
	_, bodies, _ := openTest(t, path)
	wantBodies(t, bodies, "unacked", "acked")
}

// Files the parent commit's two writers produced (the golden tests in
// internal/core and internal/cluster pin them): a WAL, 16-byte header,
// and a hint log, 26-byte header.
var fuzzSeeds = map[string]int{
	"534b574c0100000003000000000000002a00000083be8a3807000000000000000105000000612e74787405000000020000000100000000000000feffffffffffffff1200000094f4e13908000000000000000205000000612e747874":   16,
	"534b484c010000000e0000003132372e302e302e313a393030311d0000002d96b9981581e97df41022110105000000612e747874070000007061796c6f6164160000007d5ab7931681e97df41022110205000000612e74787400000000": 26,
}

// FuzzFrameLogOpen: over arbitrary file bytes behind a header Open
// accepts, Open never panics or trusts a length word, splits the file
// into a prefix of whole frames and a torn rest, is a fixed point (a
// second Open sees the same bodies and nothing torn), and leaves a log
// that appends and round-trips.
func FuzzFrameLogOpen(f *testing.F) {
	for seed, hdr := range fuzzSeeds {
		raw, err := hex.DecodeString(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw[:hdr], raw[hdr:])
		f.Add(raw[:hdr], raw[hdr:len(raw)-3])
	}
	f.Add([]byte("TESTxxxx"), []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, header, rest []byte) {
		if len(header) < 8 {
			return
		}
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, append(bytes.Clone(header), rest...), 0o644); err != nil {
			t.Fatal(err)
		}
		l, first, torn := open(t, path, header)
		var framed int64
		for _, b := range first {
			framed += frameHead + int64(len(b))
		}
		if framed+torn != int64(len(rest)) {
			t.Fatalf("%d frame bytes + %d torn != %d file bytes", framed, torn, len(rest))
		}
		l.Close()

		l, second, torn := open(t, path, header)
		if torn != 0 || !equalAll(first, second) {
			t.Fatalf("second Open: %d torn, bodies %q, want %q", torn, second, first)
		}
		appendBody(l, rest)
		if _, err := l.Sync(); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		l.Close()
		l, third, torn := open(t, path, header)
		if torn != 0 || !equalAll(append(first, rest), third) {
			t.Fatalf("Open after append: %d torn, %d bodies, want %d", torn, len(third), len(first)+1)
		}
		l.Close()
	})
}

func equalAll(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
