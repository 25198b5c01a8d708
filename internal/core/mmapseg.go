package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"unsafe"
)

// Sealed segment files hold one immutable extent of a shard's
// full-width signature tier: a fixed little-endian header followed by
// rows*slots uint64 payload words. The layout is normative in
// docs/FORMAT.md; the constants here must match it.
const (
	segMagic      = "SKSG"
	segVersion    = 1
	segHeaderSize = 40 // 8-byte aligned so the mmap'd payload view is too
)

// mmapForceFallback routes openSegment onto the pread path even where
// mmap is available. Tests flip it to exercise the fallback; operators
// set SKETCHENGINE_NO_MMAP=1 to the same effect (e.g. on filesystems
// where mapped page faults misbehave).
var mmapForceFallback = os.Getenv("SKETCHENGINE_NO_MMAP") != ""

// hostLittleEndian guards the zero-copy reinterpretation of mapped
// segment bytes as []uint64: payload words are little-endian on disk,
// so a big-endian host must take the decoding pread path instead.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// segment is one sealed extent of a shard's full-width tier, covering
// shard-local rows [base, base+rows). Sealed segments are immutable:
// the checksum is computed at seal time and verified on every open.
// Reads go through the mmap'd view when available (data != nil) and
// fall back to pread on the kept-open file otherwise.
type segment struct {
	path   string
	base   int // first shard-local row index held
	rows   int
	slots  int
	crc    uint32
	data   []uint64 // payload view over the mapping; nil on the pread path
	mapped []byte   // raw mapping, released by close
	f      *os.File
}

// rowScratch is the per-caller decode buffer for pread-path row reads;
// the mmap path never touches it.
type rowScratch struct {
	b []byte
	w []uint64
}

// writeSegment seals rows full-width signatures (rows*slots words,
// row-major) into a new segment file at path, written to a temp file in
// the same directory and renamed into place so a crash mid-seal never
// leaves a half-written segment under its final name. It returns the
// payload CRC32 recorded in the header.
func writeSegment(path string, base, slots, rows int, words []uint64) (crc uint32, err error) {
	if len(words) != rows*slots {
		return 0, fmt.Errorf("segment: %d payload words do not cover %d rows x %d slots", len(words), rows, slots)
	}
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".seg-*.tmp")
	if err != nil {
		return 0, fmt.Errorf("segment: seal: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()

	hdr := make([]byte, segHeaderSize)
	copy(hdr[0:4], segMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], segVersion)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(slots))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(rows))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(base))
	// hdr[32:36] (CRC) is back-filled after the payload pass.
	if _, err = f.Write(hdr); err != nil {
		return 0, fmt.Errorf("segment: seal: %w", err)
	}

	h := crc32.NewIEEE()
	buf := make([]byte, 0, 1<<16)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		h.Write(buf) // never fails
		_, werr := f.Write(buf)
		buf = buf[:0]
		return werr
	}
	for _, w := range words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
		if len(buf) == cap(buf) {
			if err = flush(); err != nil {
				return 0, fmt.Errorf("segment: seal: %w", err)
			}
		}
	}
	if err = flush(); err != nil {
		return 0, fmt.Errorf("segment: seal: %w", err)
	}
	crc = h.Sum32()
	var crcBytes [4]byte
	binary.LittleEndian.PutUint32(crcBytes[:], crc)
	if _, err = f.WriteAt(crcBytes[:], 32); err != nil {
		return 0, fmt.Errorf("segment: seal: %w", err)
	}
	// CreateTemp makes 0600 files; make it world-readable like the manifest.
	if err = f.Chmod(0o644); err != nil {
		return 0, fmt.Errorf("segment: seal: %w", err)
	}
	if err = f.Sync(); err != nil {
		return 0, fmt.Errorf("segment: seal: %w", err)
	}
	if err = f.Close(); err != nil {
		return 0, fmt.Errorf("segment: seal: %w", err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return 0, fmt.Errorf("segment: seal: %w", err)
	}
	return crc, nil
}

// openSegment opens and verifies a sealed segment: the size, magic,
// version, geometry, and base must match what the manifest promised,
// and the payload must hash to the recorded CRC32 (checked over the
// mapped bytes, or in one streaming pass on the pread path). A mismatch
// anywhere is a corrupt or truncated file and is rejected with an error
// naming the file and the failing check.
func openSegment(path string, base, slots, rows int, wantCRC uint32) (sg *segment, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("segment %s: %w", path, err)
	}
	payload := int64(rows) * int64(slots) * 8
	if want := int64(segHeaderSize) + payload; fi.Size() != want {
		return nil, fmt.Errorf("segment %s: truncated or oversized: %d bytes on disk, want %d (%d rows x %d slots)",
			path, fi.Size(), want, rows, slots)
	}
	hdr := make([]byte, segHeaderSize)
	if _, err = io.ReadFull(f, hdr); err != nil {
		return nil, fmt.Errorf("segment %s: header: %w", path, err)
	}
	if string(hdr[0:4]) != segMagic {
		return nil, fmt.Errorf("segment %s: bad magic %q (not a segment file)", path, hdr[0:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != segVersion {
		return nil, fmt.Errorf("segment %s: version %d is newer than this engine supports (max %d)", path, v, segVersion)
	}
	if got := int(binary.LittleEndian.Uint32(hdr[8:12])); got != slots {
		return nil, fmt.Errorf("segment %s: holds %d-slot signatures, manifest expects %d", path, got, slots)
	}
	if got := int(binary.LittleEndian.Uint64(hdr[16:24])); got != rows {
		return nil, fmt.Errorf("segment %s: holds %d rows, manifest expects %d", path, got, rows)
	}
	if got := int(binary.LittleEndian.Uint64(hdr[24:32])); got != base {
		return nil, fmt.Errorf("segment %s: base row %d, manifest expects %d", path, got, base)
	}
	crc := binary.LittleEndian.Uint32(hdr[32:36])
	if crc != wantCRC {
		return nil, fmt.Errorf("segment %s: header checksum %08x does not match manifest %08x", path, crc, wantCRC)
	}

	sg = &segment{path: path, base: base, rows: rows, slots: slots, crc: crc, f: f}
	if mmapAvailable && hostLittleEndian && !mmapForceFallback {
		mapped, merr := mapFile(f, int(int64(segHeaderSize)+payload))
		if merr == nil {
			sg.mapped = mapped
			if payload > 0 {
				sg.data = unsafe.Slice((*uint64)(unsafe.Pointer(&mapped[segHeaderSize])), rows*slots)
			}
			if got := crc32.ChecksumIEEE(mapped[segHeaderSize:]); got != crc {
				sg.close()
				return nil, fmt.Errorf("segment %s: payload checksum %08x does not match header %08x (file corrupt)", path, got, crc)
			}
			return sg, nil
		}
		// Mapping failed (exotic filesystem, resource limits): fall
		// through to pread rather than refusing to serve.
	}
	h := crc32.NewIEEE()
	if _, err = io.CopyN(h, f, payload); err != nil {
		return nil, fmt.Errorf("segment %s: payload: %w", path, err)
	}
	if got := h.Sum32(); got != crc {
		return nil, fmt.Errorf("segment %s: payload checksum %08x does not match header %08x (file corrupt)", path, got, crc)
	}
	return sg, nil
}

// rowWords returns the slots words of shard-local row base+local. On
// the mmap path the slice aliases the mapping (valid for the segment's
// lifetime); on the pread path it aliases sc, overwritten by the next
// read through the same scratch.
func (sg *segment) rowWords(local int, sc *rowScratch) ([]uint64, error) {
	off := local * sg.slots
	if sg.data != nil {
		return sg.data[off : off+sg.slots : off+sg.slots], nil
	}
	need := sg.slots * 8
	if cap(sc.b) < need {
		sc.b = make([]byte, need)
	} else {
		sc.b = sc.b[:need]
	}
	if _, err := sg.f.ReadAt(sc.b, int64(segHeaderSize)+int64(off)*8); err != nil {
		return nil, fmt.Errorf("segment %s: row %d: %w", sg.path, local, err)
	}
	if cap(sc.w) < sg.slots {
		sc.w = make([]uint64, sg.slots)
	} else {
		sc.w = sc.w[:sg.slots]
	}
	for i := range sc.w {
		sc.w[i] = binary.LittleEndian.Uint64(sc.b[i*8:])
	}
	return sc.w, nil
}

// forEachRow streams every row to fn in order — the sequential bulk
// path Open uses to rebuild the prefilter. The sig slice is only
// valid within the callback.
func (sg *segment) forEachRow(fn func(local int, sig []uint64) error) error {
	if sg.data != nil {
		for r := 0; r < sg.rows; r++ {
			if err := fn(r, sg.data[r*sg.slots:(r+1)*sg.slots]); err != nil {
				return err
			}
		}
		return nil
	}
	sr := io.NewSectionReader(sg.f, segHeaderSize, int64(sg.rows)*int64(sg.slots)*8)
	br := bufio.NewReaderSize(sr, 1<<16)
	rowBytes := make([]byte, sg.slots*8)
	sig := make([]uint64, sg.slots)
	for r := 0; r < sg.rows; r++ {
		if _, err := io.ReadFull(br, rowBytes); err != nil {
			return fmt.Errorf("segment %s: row %d: %w", sg.path, r, err)
		}
		for i := range sig {
			sig[i] = binary.LittleEndian.Uint64(rowBytes[i*8:])
		}
		if err := fn(r, sig); err != nil {
			return err
		}
	}
	return nil
}

// mappedBytes is the payload footprint served from the page cache via
// the mapping (0 on the pread path — those reads are unmapped I/O).
func (sg *segment) mappedBytes() int64 {
	if sg.mapped == nil {
		return 0
	}
	return int64(sg.rows) * int64(sg.slots) * 8
}

func (sg *segment) close() error {
	var err error
	if sg.mapped != nil {
		err = unmapFile(sg.mapped)
		sg.mapped, sg.data = nil, nil
	}
	if sg.f != nil {
		if cerr := sg.f.Close(); err == nil {
			err = cerr
		}
		sg.f = nil
	}
	return err
}
