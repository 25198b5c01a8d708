package core

import (
	"errors"
	"fmt"
)

// ErrCursorGone reports that a pagination cursor names a record that is
// no longer indexed — the caller's cursor went stale across a delete —
// so the walk cannot prove where to resume. Restart from the beginning.
var ErrCursorGone = errors.New("cursor names a record that is no longer indexed")

// DefaultPageSize is the page size Records uses when limit is not
// positive.
const DefaultPageSize = 256

// Records returns up to limit record sketches, starting after the record
// named after (empty starts from the beginning), plus the cursor for the
// next page ("" exactly when no live record follows the page). Records
// come shard by shard, in shard number order, and within a shard in row
// order, which is insertion order: a compaction keeps the live rows in
// order and a reopen rebuilds them in it. The cursor is the name of the
// page's last record, and resuming is one lookup of its row, so a
// paginated walk observes every record that exists for the whole walk
// exactly once even as concurrent adds land behind it. A cursor whose
// record has been deleted fails with ErrCursorGone.
func (ix *Index) Records(after string, limit int) ([]*Sketch, string, error) {
	if limit <= 0 {
		limit = DefaultPageSize
	}
	si := 0
	if after != "" {
		si = shardFor(after, len(ix.shards))
	}
	out := make([]*Sketch, 0, min(limit, ix.Len()))
	for ; si < len(ix.shards); si, after = si+1, "" {
		page, more, found := ix.shards[si].appendPage(out, after, limit, ix.meta.K)
		if !found {
			return nil, "", fmt.Errorf("index %q: %w: %q", ix.meta.Name, ErrCursorGone, after)
		}
		if out = page; more {
			return out, out[len(out)-1].Name, nil
		}
	}
	return out, "", nil
}
