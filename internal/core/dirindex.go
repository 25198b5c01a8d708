package core

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"sketchengine/internal/fault"
	"sketchengine/internal/framelog"
)

// ManifestFile is the name of the manifest inside an index directory
// (formats v5 and v6). The manifest is small — metadata, record
// names, and segment references — while the bulk full-width signature
// data lives in immutable files under segments/. See docs/FORMAT.md.
const ManifestFile = "MANIFEST.json"

// manifestSegment references one sealed segment file, with enough
// geometry for Open to verify the file before trusting it.
type manifestSegment struct {
	File  string `json:"file"` // base name under segments/
	Base  int    `json:"base"` // first shard-local row held
	Rows  int    `json:"rows"`
	CRC32 uint32 `json:"crc32"` // IEEE CRC of the payload words
}

// manifestShard is one stripe's row-indexed state: segment references
// in base order (tiling rows [0, sum rows)), plus the names and shingle
// counts for every row. Signatures are NOT here — the packed prefilter
// is rebuilt by streaming the segments once at load. Deleted (format
// v6) lists the tombstoned row indexes; those rows still occupy arena
// and segment space until a compaction drops them, but are invisible
// to every lookup.
type manifestShard struct {
	Segments []manifestSegment `json:"segments"`
	Names    []string          `json:"names"`
	Shingles []int32           `json:"shingles"`
	Deleted  []int32           `json:"deleted,omitempty"`
}

// manifestTier carries the tier configuration a reopened index resumes
// with.
type manifestTier struct {
	SegmentRows int `json:"segment_rows"`
}

// manifest is the JSON layout of MANIFEST.json, the commit point of
// every SaveDir: segments are written and renamed into place first, and
// only the atomic manifest rename makes them reachable. Order lists the
// live names shard by shard in row order; it is written only for older
// readers, which require it to be a permutation of the live records,
// and Open ignores it (format v7 drops it).
type manifest struct {
	Meta   Metadata        `json:"meta"`
	Tier   manifestTier    `json:"tier"`
	Order  []string        `json:"order"`
	Shards []manifestShard `json:"shards"`
}

// attachTier backs the still-private index with the directory dataDir:
// every shard's full store from now on seals its head into immutable
// segment files of segmentRows rows (0 means DefaultSegmentRows) as
// records accumulate. The write-ahead log is attached by the first
// SaveDir: durability frames only make sense once there is a committed
// manifest to replay them over.
func (ix *Index) attachTier(dataDir string, segmentRows int) error {
	if dataDir == "" {
		return fmt.Errorf("index %q: a directory-backed index needs a data directory", ix.meta.Name)
	}
	if segmentRows <= 0 {
		segmentRows = DefaultSegmentRows
	}
	ix.tier.dataDir, ix.tier.segmentRows = dataDir, segmentRows
	if err := os.MkdirAll(ix.tier.segmentsDir(), 0o755); err != nil {
		return fmt.Errorf("index %q: create %s: %w", ix.meta.Name, dataDir, err)
	}
	ix.meta.Format = FormatV6
	return nil
}

// SaveDir persists a directory-backed index into its directory: stripes
// whose tombstone ratio reached DefaultCompactThreshold are compacted
// (and the LSH posting table resealed when that, or its delta, calls for
// it), every shard's mutable head is sealed into a new immutable segment,
// then the manifest is atomically replaced — the commit point. Because
// sealed segments never change, a snapshot's cost is the unsealed rows
// plus the (small) manifest — not the whole index. After the commit the
// write-ahead log restarts empty (attached on the first SaveDir): every
// mutation it logged is now in the manifest, and the lock order
// guarantees none landed in between. Segment files a crash,
// a compaction, or a dropped head left unreferenced are cleaned up
// after the commit.
func (ix *Index) SaveDir() (err error) {
	ix.writeMu.Lock()
	defer ix.writeMu.Unlock()
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.tier.dataDir == "" {
		return fmt.Errorf("index %q: an in-memory index has no directory to save into", ix.meta.Name)
	}
	// Hold every shard lock across compact + seal + manifest + WAL
	// truncation + cleanup so no concurrent mutation can slip between
	// the snapshot and the log reset (which would lose it), and no
	// concurrent seal can produce a segment the orphan sweep would
	// delete as unreferenced.
	for _, sh := range ix.shards {
		sh.mu.Lock()
	}
	defer func() {
		for _, sh := range ix.shards {
			sh.mu.Unlock()
		}
	}()
	if err := ix.compactLocked(); err != nil {
		return fmt.Errorf("index %q: save dir: compact: %w", ix.meta.Name, err)
	}

	man := manifest{
		Meta: ix.meta,
		Tier: manifestTier{SegmentRows: ix.tier.segmentRows},
	}
	man.Meta.Format = FormatV6
	for _, sh := range ix.shards {
		names := make([]string, sh.names.len())
		for i := range names {
			names[i] = sh.names.name(int32(i))
			if !sh.rowDead(int32(i)) {
				man.Order = append(man.Order, names[i])
			}
		}
		if err := sh.full.sealHead(); err != nil {
			return fmt.Errorf("index %q: save dir: %w", ix.meta.Name, err)
		}
		ms := manifestShard{
			Segments: make([]manifestSegment, 0, len(sh.full.segs)),
			Names:    names,
			Shingles: slices.Clone(sh.shingles),
			Deleted:  sh.deadRowsLocked(),
		}
		for _, sg := range sh.full.segs {
			ms.Segments = append(ms.Segments, manifestSegment{
				File: filepath.Base(sg.path), Base: sg.base, Rows: sg.rows, CRC32: sg.crc,
			})
		}
		man.Shards = append(man.Shards, ms)
	}

	// One fsync of segments/ makes every segment sealed since the last
	// snapshot, here or when a head filled, durable before the manifest
	// that names them: a file's own fsync does not cover its name.
	if ix.tier.sealed.Swap(false) {
		if err := framelog.SyncDir(ix.tier.segmentsDir()); err != nil {
			ix.tier.sealed.Store(true)
			return fmt.Errorf("index %q: save dir: %w", ix.meta.Name, err)
		}
	}
	if err := fault.Check("manifest.commit"); err != nil {
		return fmt.Errorf("index %q: save dir: %w", ix.meta.Name, err)
	}
	if err := writeManifest(filepath.Join(ix.tier.dataDir, ManifestFile), &man); err != nil {
		return fmt.Errorf("index %q: save dir: %w", ix.meta.Name, err)
	}
	// The manifest now contains every logged mutation, and its rename is
	// durable (writeManifest fsyncs the directory; until then a power
	// loss may keep the old manifest, which needs the log's frames, so a
	// failed fsync returns before this point); truncate the log
	// (attaching it if this was the directory's first commit). A crash
	// before the truncation is harmless: replay over a snapshot that
	// already contains the frames' effects converges (adds of present
	// names skip, deletes of absent names no-op).
	if err := ix.attachWALLocked(); err != nil {
		return fmt.Errorf("index %q: save dir: %w", ix.meta.Name, err)
	}
	cleanOrphanSegments(ix.tier.segmentsDir(), &man)
	return nil
}

// compactLocked compacts every stripe whose tombstone ratio has reached
// DefaultCompactThreshold, then reseals the posting table through the
// dead sets dropped if any rows were renumbered — also after a stripe
// failed, so the table never names the old rows of the stripes already
// done — or if its delta is due for sealing (postingTable.sealDue), so
// a long-lived ingesting index gets the sealed level's size too. SaveDir
// is the only caller: it holds writeMu exclusively, so no search sees a
// stripe's new row numbers before its new postings, and every shard
// lock, which lets the reseal read the stripes unlocked.
func (ix *Index) compactLocked() (err error) {
	gone, moved := make([][]uint64, len(ix.shards)), false // gone: the dead sets compactions dropped, by stripe
	for si, sh := range ix.shards {
		if n := sh.names.len(); n == 0 || float64(sh.deadRows)/float64(n) < DefaultCompactThreshold {
			continue
		}
		dead := sh.dead
		dropped, cerr := sh.compactLocked(ix.meta.SignatureSize)
		if cerr != nil {
			err = cerr
			break
		}
		gone[si], moved = dead, true
		ix.compactions.Add(1)
		ix.compactedRows.Add(uint64(dropped))
	}
	if moved || ix.posts.sealDue() {
		ix.posts.reseal(ix.shards, gone)
	}
	return err
}

// deadRowsLocked lists the stripe's tombstoned row indexes in row
// order. Callers hold sh.mu.
func (sh *shard) deadRowsLocked() []int32 {
	if sh.deadRows == 0 {
		return nil
	}
	out := make([]int32, 0, sh.deadRows)
	for i := range int32(sh.names.len()) {
		if sh.rowDead(i) {
			out = append(out, i)
		}
	}
	return out
}

// attachWALLocked brings the write-ahead log to the
// empty-at-current-snapshot state: it deletes the stripe logs an older
// engine left (see replayWAL), then truncates the index's log back to a
// bare header, creating and attaching it on the first commit. The
// deletes come first, made durable by an fsync of wal/: a record's
// older frames may sit in a stripe log and its newer ones in the
// index's, and a crash between the two steps must not leave the older
// ones to replay alone. Callers hold ix.mu and
// every shard lock, and must have committed the manifest first — the
// WAL-active invariant is "a WAL exists if and only if there is a
// manifest to replay it over".
func (ix *Index) attachWALLocked() error {
	for si := 1; si < len(ix.shards); si++ {
		if err := os.Remove(walPath(ix.tier.dataDir, si)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("wal: %w", err)
		}
	}
	w := ix.tier.wal.Load()
	if w == nil {
		var err error
		if w, _, _, err = openWAL(ix.tier.dataDir, 0, ix.tier); err != nil {
			return err
		}
		ix.tier.wal.Store(w)
	}
	if err := framelog.SyncDir(filepath.Dir(walPath(ix.tier.dataDir, 0))); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return w.Reset()
}

// writeManifest writes the manifest to a temp file, fsyncs it, renames
// it into place and fsyncs the directory; the rename is the snapshot's
// commit point, so a crash mid-save never corrupts the previous
// snapshot.
func writeManifest(path string, man *manifest) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), ".manifest-*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = man.writeTo(f); err != nil {
		return err
	}
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	return framelog.SyncDir(filepath.Dir(path))
}

// writeTo writes the manifest as json.NewEncoder(w).Encode(m) would, byte
// for byte, but in pieces, so a snapshot never holds the whole document —
// every name twice — in one buffer (which encoding/json would then keep
// pooled).
func (m *manifest) writeTo(w io.Writer) error {
	head, err := json.Marshal(struct {
		Meta Metadata     `json:"meta"`
		Tier manifestTier `json:"tier"`
	}{m.Meta, m.Tier})
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 64<<10) // keeps its first write error for Flush
	bw.Write(head[:len(head)-1])
	writeJSONList(bw, `,"order":`, m.Order)
	sep := `,"shards":[`
	for _, ms := range m.Shards {
		writeJSONList(bw, sep+`{"segments":`, ms.Segments)
		writeJSONList(bw, `,"names":`, ms.Names)
		writeJSONList(bw, `,"shingles":`, ms.Shingles)
		if len(ms.Deleted) > 0 {
			writeJSONList(bw, `,"deleted":`, ms.Deleted)
		}
		bw.WriteByte('}')
		sep = ","
	}
	if len(m.Shards) == 0 {
		writeJSONList(bw, `,"shards":`, m.Shards) // null or []
	} else {
		bw.WriteByte(']')
	}
	bw.WriteString("}\n")
	return bw.Flush()
}

const manifestChunk = 4096 // the most list elements one json.Marshal call encodes

// writeJSONList writes key and then list as json.Marshal encodes it, a
// chunk at a time; the manifest's lists hold nothing that fails to marshal.
func writeJSONList[T any](w *bufio.Writer, key string, list []T) {
	w.WriteString(key)
	for i := 0; i == 0 || i < len(list); i += manifestChunk {
		end := min(i+manifestChunk, len(list))
		b, _ := json.Marshal(list[i:end]) // "null", "[]" or "[a,b,...]"
		if i > 0 {
			b[0] = ','
		}
		if end < len(list) {
			b = b[:len(b)-1]
		}
		w.Write(b)
	}
}

// cleanOrphanSegments removes segment and temp files the committed
// manifest does not reference — leftovers of crashed seals or saves
// that lost the race to a newer snapshot. Best-effort: failures leave
// harmless garbage, never break the index.
func cleanOrphanSegments(segDir string, man *manifest) {
	refs := make(map[string]bool)
	for _, ms := range man.Shards {
		for _, sg := range ms.Segments {
			refs[sg.File] = true
		}
	}
	entries, err := os.ReadDir(segDir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if refs[name] {
			continue
		}
		if strings.HasSuffix(name, ".seg") || strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(segDir, name))
		}
	}
}

// Open opens the index directory at dir under the banding its manifest
// records: OpenWith(dir, LSHParams{}).
func Open(dir string) (*Index, error) { return OpenWith(dir, LSHParams{}) }

// OpenWith opens the index directory at dir, written by SaveDir, under
// the banding lsh, or the manifest's when lsh is the zero value: it
// reads the manifest, opens and checksum-verifies every referenced
// segment, and streams the segment rows once, rebuilding the packed
// prefilter and sealing the live rows' LSH postings; manifest v6
// tombstones are restored, the write-ahead log is replayed over the
// snapshot (torn tails truncated) so every mutation acknowledged before
// a crash is present, and one merge seals snapshot and tail. So a retune
// costs nothing beyond what every open pays, and reaches the manifest
// with the next SaveDir. A banding that does not cover the signature,
// or a stripe whose rows a sealed posting cannot name, is refused before
// anything in dir is touched. The full-width data of the snapshot stays
// on disk (mmap'd where available): an opened index's heap holds the
// prefilter, postings and names, plus the replayed tail's full-width
// rows in the stores' heads until the next SaveDir seals them.
func OpenWith(dir string, lsh LSHParams) (ix *Index, err error) {
	fi, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	if !fi.IsDir() {
		return nil, fmt.Errorf("index: %s is a file, not an index directory; convert a legacy single-file JSON index with `engine import -o DIR %s`", dir, dir)
	}
	f, err := os.Open(filepath.Join(dir, ManifestFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("index: %s is a directory without a %s; not an index (a new index materializes its manifest on the first SaveDir)", dir, ManifestFile)
		}
		return nil, fmt.Errorf("index: %w", err)
	}
	var m manifest
	derr := json.NewDecoder(f).Decode(&m)
	f.Close()
	if derr != nil {
		return nil, fmt.Errorf("index: manifest: %w", derr)
	}
	switch {
	case m.Meta.Format < FormatV5:
		return nil, fmt.Errorf("index: manifest format %d is not the index directory format (%d or %d)", m.Meta.Format, FormatV5, FormatV6)
	case m.Meta.Format > FormatV6:
		return nil, fmt.Errorf("index: manifest format %d is newer than this engine supports (max %d)", m.Meta.Format, FormatV6)
	}
	if m.Meta.K <= 0 || m.Meta.SignatureSize <= 0 {
		return nil, fmt.Errorf("index: invalid manifest metadata: k=%d signature_size=%d", m.Meta.K, m.Meta.SignatureSize)
	}
	stored, err := NewLSHParams(m.Meta.Bands, m.Meta.RowsPerBand, m.Meta.SignatureSize)
	if err != nil {
		return nil, fmt.Errorf("index: invalid manifest metadata: %w", err)
	}
	if lsh == (LSHParams{}) {
		lsh = stored
	} else if lsh, err = NewLSHParams(lsh.Bands, lsh.RowsPerBand, m.Meta.SignatureSize); err != nil {
		return nil, fmt.Errorf("index: %s: %w", dir, err)
	}
	shards := m.Meta.Shards
	if len(m.Shards) != shards {
		return nil, fmt.Errorf("index: invalid manifest metadata: shards=%d but manifest lists %d shard entries", shards, len(m.Shards))
	}
	if err := checkShards(shards); err != nil {
		return nil, fmt.Errorf("index: invalid manifest metadata: %w", err)
	}
	if m.Meta.Scheme != SchemeOPH {
		return nil, fmt.Errorf("index: invalid manifest metadata: unsupported scheme %q (this engine sketches with %q only; rebuild from source data)", m.Meta.Scheme, SchemeOPH)
	}
	// The bits key says 8 as SaveDir writes it, 16 or 64 as older builds
	// wrote it, or 4, the width the prefilter is held at. The prefilter is
	// rebuilt from the full-width segments at that width whatever the key
	// says, and the next SaveDir writes 8.
	if b := m.Meta.Bits; b != prefilterBits && b != 16 && b != 64 {
		if err := validBits(b); err != nil {
			return nil, fmt.Errorf("index: invalid manifest metadata: %w", err)
		}
	}
	segRows := m.Tier.SegmentRows
	if segRows <= 0 {
		segRows = DefaultSegmentRows
	}
	rowBits, live := uint(0), 0 // the largest stripe's row bits, and the live rows listed
	for si, ms := range m.Shards {
		rowBits, live = max(rowBits, uint(bits.Len(uint(max(len(ms.Names), 1)-1)))), live+len(ms.Names)-len(ms.Deleted)
		if bits.Len(uint(shards-1))+int(rowBits) > postingBits {
			return nil, fmt.Errorf("index: manifest shard %d: %d rows, more than a sealed posting names beside %d shards", si, len(ms.Names), shards)
		}
	}
	ents := make([]uint64, 0, max(live, 0)*lsh.Bands) // fingerprint<<32 | posting, in (shard, row) order

	meta := m.Meta
	meta.Format = FormatV6
	meta.Bits = manifestBits
	meta.Bands, meta.RowsPerBand = lsh.Bands, lsh.RowsPerBand
	tier := &tierState{dataDir: dir, segmentRows: segRows}
	posts := newPostingTable(lsh, shards)
	ix = &Index{
		meta:   meta,
		shards: newShards(shards, posts, meta.SignatureSize, tier),
		posts:  posts,
		tier:   tier,
	}
	// Close whatever was opened before any failed return below. The
	// failed returns set the named ix to nil, so the built index is
	// captured separately.
	built := ix
	defer func() {
		if err != nil {
			built.Close()
			ix = nil
		}
	}()

	slots := meta.SignatureSize
	for si, ms := range m.Shards {
		sh := ix.shards[si]
		if len(ms.Shingles) != len(ms.Names) {
			return nil, fmt.Errorf("index: manifest shard %d: %d names but %d shingle counts", si, len(ms.Names), len(ms.Shingles))
		}
		rows := 0
		for _, sref := range ms.Segments {
			if sref.File != filepath.Base(sref.File) || sref.File == "" {
				return nil, fmt.Errorf("index: manifest shard %d references invalid segment file name %q", si, sref.File)
			}
			if sref.Base != rows || sref.Rows <= 0 {
				return nil, fmt.Errorf("index: manifest shard %d: segment %s covers rows [%d,%d), want base %d",
					si, sref.File, sref.Base, sref.Base+sref.Rows, rows)
			}
			sg, serr := openSegment(filepath.Join(tier.segmentsDir(), sref.File), sref.Base, slots, sref.Rows, sref.CRC32)
			if serr != nil {
				return nil, fmt.Errorf("index: %w", serr)
			}
			sh.full.segs = append(sh.full.segs, sg)
			rows += sref.Rows
		}
		sh.full.headBase = rows
		if len(ms.Names) != rows {
			return nil, fmt.Errorf("index: manifest shard %d: %d names but segments hold %d rows", si, len(ms.Names), rows)
		}
		sh.shingles = ms.Shingles
		// Tombstones first: a dead row keeps its arena slot (row indexes
		// must match the segment layout) but never enters the name index
		// or the posting table.
		for _, di := range ms.Deleted {
			if di < 0 || int(di) >= rows {
				return nil, fmt.Errorf("index: manifest shard %d: deleted row %d out of range [0,%d)", si, di, rows)
			}
			if sh.rowDead(di) {
				return nil, fmt.Errorf("index: manifest shard %d: row %d deleted twice", si, di)
			}
			sh.kill(di)
		}
		nameBytes := 0
		for _, name := range ms.Names {
			nameBytes += len(name)
		}
		if nameBytes > math.MaxUint32 {
			return nil, fmt.Errorf("index: manifest shard %d: %d bytes of names, more than a stripe holds", si, nameBytes)
		}
		sh.names = newNameTable(rows, rows-sh.deadRows, nameBytes)
		for i, name := range ms.Names {
			if name == "" {
				return nil, fmt.Errorf("index: manifest shard %d row %d has an empty name", si, i)
			}
			if shardFor(name, shards) != si {
				return nil, fmt.Errorf("index: manifest shard %d row %d: record %q belongs on shard %d", si, i, name, shardFor(name, shards))
			}
			// A dead row may legally share its name with a live one
			// (delete + re-add), so it skips the duplicate check, and add
			// leaves it out of the index.
			if !sh.rowDead(int32(i)) && sh.names.lookup(name, sh.dead) >= 0 {
				return nil, fmt.Errorf("index: duplicate record name %q", name)
			}
			sh.names.add(name, sh.dead)
		}
		m.Shards[si].Names = nil // the table holds them now
		// One streaming pass over the full-width rows rebuilds the packed
		// prefilter (dead rows too) and hashes the live rows' band keys.
		for _, sg := range sh.full.segs {
			serr := sg.forEachRow(func(local int, sig []uint64) error {
				sh.arena.appendSig(sig)
				if row := sg.base + local; !sh.rowDead(int32(row)) {
					for band := range lsh.Bands {
						ents = append(ents, lsh.bandKey(band, sig)&^math.MaxUint32|uint64(si)<<rowBits|uint64(row))
					}
				}
				return nil
			})
			if serr != nil {
				return nil, fmt.Errorf("index: %w", serr)
			}
		}
	}
	ents = sortEntries(ents, make([]uint64, len(ents)), 32)
	ix.meta.RecordCount = 0
	for _, sh := range ix.shards {
		ix.meta.RecordCount += sh.names.len() - sh.deadRows
	}
	// Replay whatever the write-ahead log holds past this snapshot —
	// everything acknowledged since the manifest was committed — then
	// attach the log for new mutations. A snapshot that already
	// contains some frames' effects (crash between manifest commit and
	// log truncation) replays idempotently.
	if err = ix.replayWAL(); err != nil {
		return nil, err
	}
	// Then seal snapshot and tail at once, so no reopened index serves its
	// tail from the delta or its replayed deletes from the sealed level.
	// The index is still private, as the merge requires.
	posts.merge(ents, rowBits, ix.shards, nil)
	return ix, nil
}

// replayWAL opens the index's log and every stripe log an engine up to
// 0.13 left beside it (opening cuts torn tails off), applies their
// frames in global sequence order through the normal Add/Delete paths,
// and only then attaches the index's log, so replayed mutations are not
// re-logged. The stripe logs are closed but stay on disk, replayed again
// by every Open, until the next SaveDir deletes them. Called by Open on
// the fully-built index, before it is visible to anyone else.
func (ix *Index) replayWAL() (err error) {
	var w *shardWAL
	defer func() {
		if err != nil && w != nil {
			w.Close()
		}
	}()
	var all []walOp
	var torn int64
	for si := range ix.shards {
		if _, err := os.Stat(walPath(ix.tier.dataDir, si)); si > 0 && os.IsNotExist(err) {
			continue
		}
		l, ops, t, err := openWAL(ix.tier.dataDir, si, ix.tier)
		if err != nil {
			return fmt.Errorf("index: %w", err)
		}
		if si == 0 {
			w = l
		} else {
			l.Close()
		}
		all = append(all, ops...)
		torn += t
	}
	slices.SortFunc(all, func(a, b walOp) int { return cmp.Compare(a.seq, b.seq) })
	slots := ix.meta.SignatureSize
	var maxSeq uint64
	for _, op := range all {
		maxSeq = max(maxSeq, op.seq)
		switch op.op {
		case walOpAdd:
			if len(op.sig) != slots {
				return fmt.Errorf("index: wal: add frame for %q carries %d slots, index wants %d", op.name, len(op.sig), slots)
			}
			if _, err := ix.Add(&Sketch{
				Name:      op.name,
				K:         ix.meta.K,
				Shingles:  int(op.shingles),
				Signature: op.sig,
			}); err != nil {
				return fmt.Errorf("index: wal replay: %w", err)
			}
		case walOpDelete:
			if _, err := ix.Delete(op.name); err != nil {
				return fmt.Errorf("index: wal replay: %w", err)
			}
		}
	}
	if ix.tier.walSeq.Load() < maxSeq {
		ix.tier.walSeq.Store(maxSeq)
	}
	ix.tier.walReplayed.Store(uint64(len(all)))
	ix.tier.walTornBytes.Store(uint64(torn))
	ix.tier.wal.Store(w)
	return nil
}

// DataDir returns the index directory, or "" for an in-memory index.
func (ix *Index) DataDir() string { return ix.tier.dataDir }

// SetBudget caps how many full-width rescores one query spends per
// shard (0 = unbounded, the default — results are then exact; a
// positive budget trades recall under adversarially flat score
// distributions for a hard I/O bound). Safe to adjust on a live index.
func (ix *Index) SetBudget(n int) { ix.tier.budget.Store(int64(n)) }

// Budget returns the per-shard rescore budget (0 = unbounded).
func (ix *Index) Budget() int { return int(ix.tier.budget.Load()) }

// Tier returns a snapshot of tiered-storage state, or nil for an
// in-memory index (so it serializes as an absent field in Stats).
func (ix *Index) Tier() *TierStats {
	tier := ix.tier
	if tier.dataDir == "" {
		return nil
	}
	st := &TierStats{
		PrefilterBits:     prefilterBits,
		Budget:            int(tier.budget.Load()),
		SegmentRows:       tier.segmentRows,
		PrefilterScanned:  tier.scanned.Load(),
		PrefilterSurvived: tier.survived.Load(),
		Rescored:          tier.rescored.Load(),
		ReadErrors:        tier.readErrors.Load(),
	}
	for _, sh := range ix.shards {
		segs, mapped, head, arenaUsed := sh.tierBytes()
		st.Segments += segs
		st.MappedBytes += mapped
		st.HeadBytes += head
		st.ResidentBytes += arenaUsed + head
	}
	if st.PrefilterScanned > 0 {
		st.SurvivalRate = float64(st.PrefilterSurvived) / float64(st.PrefilterScanned)
	}
	return st
}

// Close releases the on-disk tier's mappings and file handles,
// including the write-ahead log (buffered-but-unsynced frames are
// dropped — callers that need them durable call SyncWAL first, and the
// ack path already has). It is a no-op on an in-memory index; the index
// must not be used afterwards.
func (ix *Index) Close() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var first error
	for _, sh := range ix.shards {
		sh.mu.Lock()
		if err := sh.full.close(); err != nil && first == nil {
			first = err
		}
		sh.mu.Unlock()
	}
	if w := ix.tier.wal.Swap(nil); w != nil {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
