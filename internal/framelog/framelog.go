// Package framelog is the engine's one append-only framed log. The
// index's write-ahead log (internal/core) and the hinted-handoff log
// (internal/cluster) are both a Log; they differ in their header bytes
// and in what a frame body means. docs/FORMAT.md, "Framed log", is the
// specification.
//
// A file is the caller's header — 4 magic bytes, a u32 version, then
// whatever the caller keeps there — followed by frames, little-endian:
//
//	u32 bodyLen | u32 crc32(body) | body
//
// A Log is safe for concurrent use: appends from many goroutines share
// the next Sync's one write and one fsync.
package framelog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"time"

	"sketchengine/internal/fault"
)

// MaxBody caps a frame body, so a scan never allocates or skips by an
// unchecked length word.
const MaxBody = 1 << 27

const frameHead = 8 // bodyLen + crc

// Log is one open log file plus the frames appended since the last Sync.
type Log struct {
	path                   string
	header                 []byte
	writePoint, fsyncPoint string // fault points in front of write and fsync

	mu     sync.Mutex
	f      *os.File
	end    int64 // where the next write lands: header plus every frame written
	frames int64 // frames in [0, end)
	broken error // a rollback or Reset failed: the file may not end at end

	buf     []byte // encoded frames not yet written
	pending int64  // frames in buf
}

// Open opens the log at path, creating it when absent, and returns the
// bodies of its valid prefix (they alias one read of the file) and how
// many torn bytes followed it. The prefix ends at the first frame that
// is short, over MaxBody or fails its CRC — what a crash mid-write
// leaves — and the file is truncated there. A file shorter than header
// was never synced behind an ack, so it is an empty log; one that starts
// with other bytes is the wrong file, a hard error.
func Open(path string, header []byte, writePoint, fsyncPoint string) (l *Log, bodies [][]byte, torn int64, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, 0, err
	}
	l = &Log{path: path, header: header, writePoint: writePoint, fsyncPoint: fsyncPoint, f: f}
	data, err := os.ReadFile(path) // sized to the file, unlike io.ReadAll(f)
	off := len(header)
	switch {
	case err != nil:
	case len(data) < off:
		torn, err = int64(len(data)), l.Reset()
	case !bytes.Equal(data[:off], header):
		err = fmt.Errorf("%s: starts with %q, not this log's header %q", path, data[:off], header)
	default:
		for rest := data[off:]; len(rest) >= frameHead; rest = data[off:] {
			n := binary.LittleEndian.Uint32(rest)
			if n > MaxBody || int(n) > len(rest)-frameHead {
				break
			}
			body := rest[frameHead : frameHead+int(n)]
			if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(rest[4:]) {
				break
			}
			bodies = append(bodies, body)
			off += frameHead + int(n)
		}
		l.end, l.frames, torn = int64(off), int64(len(bodies)), int64(len(data)-off)
		if torn > 0 {
			err = f.Truncate(l.end)
		}
	}
	if err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	return l, bodies, torn, nil
}

// Append adds one frame to the pending buffer: encode appends the body
// to the slice it is given and returns the result. Nothing is copied or
// allocated beyond the buffer's own growth, and nothing can fail before
// Sync.
func (l *Log) Append(encode func(b []byte) []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	at := len(l.buf)
	l.buf = encode(append(l.buf, 0, 0, 0, 0, 0, 0, 0, 0))
	body := l.buf[at+frameHead:]
	if len(body) > MaxBody {
		panic("framelog: frame body over MaxBody")
	}
	binary.LittleEndian.PutUint32(l.buf[at:], uint32(len(body)))
	binary.LittleEndian.PutUint32(l.buf[at+4:], crc32.ChecksumIEEE(body))
	l.pending++
}

// Sync writes the pending frames and fsyncs the file — the durability
// point an ack waits on — and returns how long the fsync took. With
// nothing pending it is a no-op: what was written before is synced. On
// any error the pending frames are dropped and the caller fails its ack.
// A failed or short write is rolled back by truncating to the end of the
// last complete write, so no later frame is written, synced and acked
// behind garbage the next Open would stop at; if the truncate fails too,
// every Sync is refused until Reset or Rewrite.
func (l *Log) Sync() (fsync time.Duration, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.buf) == 0 {
		return 0, nil
	}
	return l.flush()
}

func (l *Log) flush() (fsync time.Duration, err error) {
	buf, pending := l.buf, l.pending
	l.buf, l.pending = l.buf[:0], 0
	if l.broken != nil {
		return 0, fmt.Errorf("%s: no writes after a failed rollback: %w", l.path, l.broken)
	}
	err = fault.Check(l.writePoint)
	if err == nil {
		_, err = l.f.WriteAt(buf, l.end)
	} else if inj := (*fault.InjectedError)(nil); errors.As(err, &inj) && inj.Kind == fault.KindTorn {
		_, _ = l.f.WriteAt(buf[:len(buf)/2], l.end) // a short write: half lands, then the error
	}
	if err != nil {
		l.broken = l.f.Truncate(l.end)
		return 0, fmt.Errorf("%s: %w", l.path, err)
	}
	l.end += int64(len(buf))
	l.frames += pending
	start := time.Now()
	if err = fault.Check(l.fsyncPoint); err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		return 0, fmt.Errorf("fsync %s: %w", l.path, err)
	}
	return time.Since(start), nil
}

// Reset empties the log in place, back to a bare header, dropping
// anything pending. The WAL calls it once a snapshot holds every frame.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf, l.pending = l.buf[:0], 0
	err := l.f.Truncate(0)
	if err == nil {
		_, err = l.f.WriteAt(l.header, 0)
	}
	if l.broken = err; err != nil {
		return fmt.Errorf("reset %s: %w", l.path, err)
	}
	l.end, l.frames = int64(len(l.header)), 0
	return nil
}

// Rewrite atomically replaces the log's contents with the pending
// frames: header and frames go to a temp file that is fsynced and
// renamed over the log, so a crash leaves the old contents or the new.
// On error the old file stays in place and in use.
func (l *Log) Rewrite() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	tmp := &Log{path: l.path + ".tmp", header: l.header, writePoint: l.writePoint, fsyncPoint: l.fsyncPoint}
	buf, pending := l.buf, l.pending
	l.buf, l.pending = l.buf[:0], 0
	var err error
	if tmp.f, err = os.OpenFile(tmp.path, os.O_RDWR|os.O_CREATE, 0o644); err != nil {
		return err
	}
	if err = tmp.Reset(); err == nil {
		tmp.buf, tmp.pending = buf, pending
		_, err = tmp.flush()
	}
	if err == nil {
		err = os.Rename(tmp.path, l.path)
	}
	if err != nil {
		tmp.f.Close()
		os.Remove(tmp.path)
		return fmt.Errorf("rewrite: %w", err)
	}
	l.f.Close()
	l.f, l.end, l.frames, l.broken = tmp.f, tmp.end, tmp.frames, nil
	return nil
}

// Depth returns the frames and frame bytes in the log, pending included.
func (l *Log) Depth() (frames, size int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.frames + l.pending, l.end - int64(len(l.header)) + int64(len(l.buf))
}

// Close closes the file; pending frames are dropped.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}
