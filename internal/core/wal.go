package core

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"sketchengine/internal/framelog"
)

// The index's write-ahead log. Every acknowledged add or delete on a
// tiered index is appended as a frame to the one log before the ack,
// and replayed over the last snapshot when the directory is reopened —
// so acked-ingest-survives costs O(delta since the last snapshot)
// instead of being snapshot-gated. The file is a framelog.Log: frames,
// torn tails, write failures and reset are its business
// (docs/FORMAT.md, "Framed log"); this file owns the header and the
// frame body.
//
// Header, 16 bytes: magic "SKWL", u32 version, u32 shard ID, u32
// reserved. Frame body:
//
//	u64 seq | u8 op | u32 nameLen | name
//	  op=add only: u32 shingles | u32 slots | slots x u64 signature
//
// all little-endian. The log is always shard 0's file; engines up to
// 0.13 kept one log per shard, and Open still replays those files until
// the next SaveDir deletes them. seq is an index-wide sequence number,
// handed out under the stripe lock but appended under the log's, so it
// is not in file order: replay sorts by it.
const (
	walDirName    = "wal"
	walMagic      = "SKWL"
	walVersion    = 1
	walHeaderSize = 16

	walOpAdd    = 1
	walOpDelete = 2
)

// walPath names shard si's WAL file under dataDir. The index's own log
// is si 0; other numbers name the stripe logs older engines wrote.
func walPath(dataDir string, si int) string {
	return filepath.Join(dataDir, walDirName, fmt.Sprintf("shard-%04d.wal", si))
}

// walOp is one decoded WAL frame.
type walOp struct {
	seq      uint64
	op       byte
	name     string
	shingles int32
	sig      []uint64 // add frames only; full-width slot values
}

// shardWAL is the index's open write-ahead log, shard 0's file.
// Appends encode into the log's in-memory buffer (and therefore never
// fail), so shard.add needs no rollback path; sync flushes and fsyncs
// whatever has accumulated — concurrent writers on every stripe
// group-commit under one fsync. No stripe lock is required: the log has
// its own mutex, and the lock order is writeMu -> ix.mu -> sh.mu -> the
// log's. Reset (SaveDir, right after the manifest rename commits a
// snapshot holding every logged mutation; that order leaves no gap for
// a frame to land in), Depth and Close are the log's own.
type shardWAL struct {
	t *tierState
	*framelog.Log
}

// openWAL opens (creating if needed) shard si's WAL under dataDir and
// returns it positioned after its valid prefix, the frames of that
// prefix decoded, and the torn bytes cut off behind it. A frame whose
// CRC matches but whose body does not decode is not a torn write but
// real corruption (or a writer bug): a hard error, like a header that
// names another magic, version or shard — no guessing at acknowledged
// data.
func openWAL(dataDir string, si int, t *tierState) (w *shardWAL, ops []walOp, torn int64, err error) {
	path := walPath(dataDir, si)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, 0, fmt.Errorf("wal: %w", err)
	}
	hdr := make([]byte, walHeaderSize)
	copy(hdr, walMagic)
	binary.LittleEndian.PutUint32(hdr[4:], walVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(si))
	log, bodies, torn, err := framelog.Open(path, hdr, "wal.write", "wal.fsync")
	if err != nil {
		return nil, nil, 0, fmt.Errorf("wal: %w", err)
	}
	ops = make([]walOp, len(bodies))
	for i, body := range bodies {
		if ops[i], err = decodeWALBody(body); err != nil {
			log.Close()
			return nil, nil, 0, fmt.Errorf("wal: %s: frame %d: %w", path, i, err)
		}
	}
	return &shardWAL{t, log}, ops, torn, nil
}

// appendAdd logs an acknowledged insert. The append lands in the
// in-memory buffer and cannot fail; durability comes from the next
// sync.
func (w *shardWAL) appendAdd(seq uint64, name string, shingles int32, sig []uint64) {
	w.t.walAppends.Add(1)
	w.Append(func(b []byte) []byte {
		b = appendWALHead(b, seq, walOpAdd, name)
		b = binary.LittleEndian.AppendUint32(b, uint32(shingles))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(sig)))
		for _, v := range sig {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	})
}

// appendDelete logs an acknowledged tombstone.
func (w *shardWAL) appendDelete(seq uint64, name string) {
	w.t.walAppends.Add(1)
	w.Append(func(b []byte) []byte { return appendWALHead(b, seq, walOpDelete, name) })
}

// appendWALHead appends the body fields every frame shares.
func appendWALHead(b []byte, seq uint64, op byte, name string) []byte {
	b = binary.LittleEndian.AppendUint64(b, seq)
	b = append(b, op)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(name)))
	return append(b, name...)
}

// sync makes the buffered frames durable — the point every ack waits
// on. An empty buffer is a no-op: what was written before is synced,
// and no fsync is paid. On an error the buffered frames are dropped
// from the log and the file is rolled back to its last complete write
// (the caller fails the ack; the records themselves are still in
// memory, and SyncWAL's next sweep snapshots them).
func (w *shardWAL) sync() error {
	fsync, err := w.Sync()
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if fsync > 0 {
		w.t.walFsyncs.Add(1)
		w.t.walFsyncNanos.Add(uint64(fsync))
	}
	return nil
}

// decodeWALBody parses one CRC-verified frame body.
func decodeWALBody(body []byte) (walOp, error) {
	var op walOp
	if len(body) < 13 {
		return op, fmt.Errorf("body too short (%d bytes)", len(body))
	}
	op.seq = binary.LittleEndian.Uint64(body[0:8])
	op.op = body[8]
	nameLen := binary.LittleEndian.Uint32(body[9:13])
	rest := body[13:]
	if uint32(len(rest)) < nameLen {
		return op, fmt.Errorf("name length %d exceeds body", nameLen)
	}
	op.name = string(rest[:nameLen])
	rest = rest[nameLen:]
	switch op.op {
	case walOpDelete:
		if len(rest) != 0 {
			return op, fmt.Errorf("delete frame has %d trailing bytes", len(rest))
		}
	case walOpAdd:
		if len(rest) < 8 {
			return op, fmt.Errorf("add frame truncated")
		}
		op.shingles = int32(binary.LittleEndian.Uint32(rest[0:4]))
		slots := binary.LittleEndian.Uint32(rest[4:8])
		rest = rest[8:]
		if uint64(len(rest)) != uint64(slots)*8 {
			return op, fmt.Errorf("add frame holds %d signature bytes, want %d slots", len(rest), slots)
		}
		op.sig = make([]uint64, slots)
		for i := range op.sig {
			op.sig[i] = binary.LittleEndian.Uint64(rest[i*8:])
		}
	default:
		return op, fmt.Errorf("unknown op %d", op.op)
	}
	return op, nil
}
