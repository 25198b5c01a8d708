// Package core implements the sketch/index/query engine at the heart of
// sketchengine.
//
// The pipeline has three stages:
//
//  1. Sketching: input records are shingled with a rolling hash and
//     compressed into compact fixed-size minhash signatures (see Sketcher).
//  2. Indexing: signatures live in a sharded Index — N lock-striped
//     shards keyed by record-name hash, each owning a bit-sliced 4-bit
//     prefilter arena over a full-width store, and one
//     index-wide LSH posting table (see postingTable: a
//     compact sealed level each seal merges from both levels — buckets in
//     fingerprint order behind a fingerprint-prefix directory — and a
//     delta for the rows added since) — with incremental add /
//     skip-existing semantics.
//  3. Querying: pairwise distances fan out over a bounded worker pool
//     sized to GOMAXPROCS (see Pool). A top-K search runs on its
//     caller's goroutine, sweeping each shard's arena cache-linearly in
//     turn into one bounded top-K heap: one search uses one core, and a
//     server's concurrency comes from concurrent requests.
//     Top-K search (Index.Search) runs in LSH mode by default, probing
//     each level of the posting table once per band for candidates
//     instead of scanning the whole corpus; exact mode is the same
//     path, but it always sweeps the rows the probe did not find, with
//     the floor raised to the K-th best candidate's count.
//
// # Storage
//
// Every index has one resident layout: the arena holds the low nibble of
// every slot, as four bit planes, and the full-width signatures live in
// a fullStore. An index is either
// purely in memory (NewIndex, or NewEngine without Options.Tiered: the
// full-width rows stay on the heap and nothing persists) or a directory
// from birth (NewEngine with Options.Tiered and DataDir, reopened with
// Open) — the one persistent layout, whose full-width rows live in
// immutable on-disk segment files, mmap'd read-only where the platform
// allows and served by pread elsewhere. Queries run in two phases — a
// blocked sweep of the resident prefilter (one scan loop over a
// per-chunk kernel; see shard.sweep and kernel.go) followed by
// full-width rescoring of the survivors straight from the full store,
// ranked by packed count so a top-K heap can stop reading as soon as no
// remaining candidate's upper bound can beat the current worst result.
// See
// docs/ARCHITECTURE.md for the data flow and docs/FORMAT.md for the
// on-disk layout.
//
// # Invariants
//
// The package leans on a small set of invariants; code that changes
// them must change the places that assume them:
//
//   - Truncation is monotone: a b-bit packed slot comparison matches
//     whenever the full-width slots match, so the packed matched count
//     is an upper bound on the full-width count. This is what makes
//     the prefilter cut (shard.prefilter, one integer floor for both
//     passes) and the rescore early-exit (shard.rescore) exact rather
//     than approximate, and what bounds b-bit
//     over-reporting by the 2^-b collision rate (see the collision-bound
//     test). The scan kernel's nibble count is that bound, so it goes
//     straight on as the rescore's (see kernel.go).
//   - Band keys hash each slot's low byte (LSHParams.bandKey), on the
//     query side and the index side alike, from full-width values, not
//     the arena (a seal merges the fingerprints the table holds): keys of
//     the arena's nibbles would collide 2^4r times as often in a band of
//     r slots.
//   - Shard-local row order is append order, shared by the arena, the
//     name table and shingle column, the full store, and the posting
//     table's (shard, row) entries: row i of a shard means the same
//     record in all of them. Compaction renumbers rows (keeping their
//     order), so it reseals the table through the dropped dead set under
//     every shard lock and Index.writeMu, which every search holds shared
//     from its snapshot of the stripes to its last pass.
//   - The sealed posting level keys buckets by the top 32 bits of the
//     band key, so a probe may name rows that share no bucket with the
//     query. Nothing may return a probe candidate unscored.
//     A full store's segments tile [0, headBase) contiguously and the
//     mutable head holds rows from headBase up.
//   - An index persists only through SaveDir, whose manifest rename is
//     the commit point. Sealed segment files are immutable — snapshots
//     only add files. The shard count is fixed at creation, the
//     banding when an index is created or opened (OpenWith).
//   - Sketch signatures, scores, and result ordering are deterministic
//     for a given corpus and parameters, independent of thread count
//     and of which scan kernel the CPU selects, so goldens can pin
//     outputs byte-for-byte.
//   - Padding bits of a packed plane are zero, in the arena and in the
//     packed query alike, so every comparator and scan kernel counts
//     them as equal; the count is corrected once, by whoever asked.
package core
