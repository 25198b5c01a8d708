package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"
)

// FuzzRecordsCursor drives adds, deletes and Records page calls over a
// small index from the input bytes, against a model of each shard's
// insertion order walked shard by shard, and holds Records to its
// contract: each page is the model's
// next names after the cursor, with the cursor of its last record when
// more follow; ErrCursorGone comes exactly when the cursor's name is not
// indexed; a walk never sees a record twice, and one that ends sees
// every record that existed for all of it. A record is one add of a
// name: deleted and added again, it is another.
func FuzzRecordsCursor(f *testing.F) {
	f.Add([]byte{0, 4, 8, 12, 3, 3, 3, 3})
	f.Add([]byte{0, 4, 8, 12, 16, 7, 2, 7, 20, 7, 7})     // the cursor's record deleted mid-walk
	f.Add([]byte{0, 4, 8, 12, 7, 14, 24, 28, 7, 7, 7, 7}) // others deleted and added behind it
	sk, err := NewSketcher(4, 16)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		ix := NewIndex("fuzz", 4, 16)
		var rows [DefaultShards][]string // the model: each shard's indexed names, in insertion order
		incarnation := map[string]int{}  // name -> which add of it is indexed
		walking, cursor, cursorOf := false, "", 0
		var began, seen map[string]int // incarnations live at the walk's start, and seen by it
		for _, b := range prog {
			name := fmt.Sprintf("r%d", b>>2&7)
			sh := &rows[shardFor(name, DefaultShards)]
			order := slices.Concat(rows[:]...) // the walk order: shard by shard
			switch b & 3 {
			case 0, 1:
				added, err := ix.Add(sk.Sketch(Record{Name: name, Data: []byte("payload of " + name)}))
				if err != nil || added == slices.Contains(order, name) {
					t.Fatalf("add %s = %v, %v with %v indexed", name, added, err, order)
				}
				if added {
					*sh = append(*sh, name)
					incarnation[name]++
				}
			case 2:
				if ok, err := ix.Delete(name); err != nil || ok != slices.Contains(order, name) {
					t.Fatalf("delete %s = %v, %v with %v indexed", name, ok, err, order)
				}
				*sh = slices.DeleteFunc(*sh, func(n string) bool { return n == name })
			case 3:
				if !walking {
					walking, cursor, seen = true, "", map[string]int{}
					began = maps.Clone(incarnation)
					for n := range began {
						if !slices.Contains(order, n) {
							delete(began, n)
						}
					}
				}
				pos := slices.Index(order, cursor)
				if cursor != "" && pos >= 0 && incarnation[cursor] != cursorOf {
					// Deleted and added again: a name cannot tell its
					// records apart, so the walk resumes from the new one.
					// TestRecordsCursorReadded pins it; start over.
					walking = false
					continue
				}
				limit := 1 + int(b>>2&3)
				page, next, err := ix.Records(cursor, limit)
				if gone := cursor != "" && pos < 0; gone || err != nil {
					if !gone || !errors.Is(err, ErrCursorGone) {
						t.Fatalf("Records(%q) = %v with %v indexed", cursor, err, order)
					}
					walking = false
					continue
				}
				want := order[pos+1 : min(pos+1+limit, len(order))]
				var got []string
				for _, s := range page {
					got = append(got, s.Name)
					if seen[s.Name] == incarnation[s.Name] {
						t.Fatalf("walk saw %s twice", s.Name)
					}
					seen[s.Name] = incarnation[s.Name]
				}
				if more := pos+1+limit < len(order); !slices.Equal(got, want) || (next != "") != more || more && next != want[len(want)-1] {
					t.Fatalf("Records(%q, %d) = %v, next %q; want %v of %v", cursor, limit, got, next, want, order)
				}
				if cursor, cursorOf = next, incarnation[next]; next == "" {
					for n, inc := range began {
						if incarnation[n] == inc && slices.Contains(order, n) && seen[n] != inc {
							t.Fatalf("walk missed %s, indexed all along", n)
						}
					}
					walking = false
				}
			}
		}
	})
}

// TestRecordsWalkAcrossCompactionAndReopen walks a tiered index at limit
// 3 while, between pages, records are added, a third of the cursor's
// shard is deleted, SaveDir compacts that shard (renumbering the rows
// under the cursor), and the directory is closed and reopened: every
// record live throughout is seen exactly once, and Len counts the rest.
func TestRecordsWalkAcrossCompactionAndReopen(t *testing.T) {
	const shards, n = 4, 60
	dir := t.TempDir()
	eng, err := NewEngine(Options{IndexName: "walk", Shards: shards, Bits: 8, Tiered: true, DataDir: dir, SegmentRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	add := func(name string, seed int64) {
		t.Helper()
		if ok, err := addRecord(eng, Record{Name: name, Data: benchData(256, seed)}); !ok || err != nil {
			t.Fatalf("add %s = %v, %v", name, ok, err)
		}
	}
	for i := range n {
		add(fmt.Sprintf("rec-%d", i), int64(i+1))
	}
	ix := eng.Index()
	if err := ix.SaveDir(); err != nil {
		t.Fatal(err)
	}

	seen := map[string]int{}
	cursor := ""
	page := func() {
		t.Helper()
		recs, next, err := ix.Records(cursor, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range recs {
			seen[s.Name]++
		}
		cursor = next
	}
	page()
	page()
	// Delete a third of the cursor's shard, on both sides of the cursor.
	victim := shardFor(cursor, shards)
	var inShard []string
	for i := range n {
		if name := fmt.Sprintf("rec-%d", i); shardFor(name, shards) == victim && name != cursor {
			inShard = append(inShard, name)
		}
	}
	deleted := map[string]bool{}
	for i := 0; i < len(inShard); i += 3 {
		if ok, err := ix.Delete(inShard[i]); !ok || err != nil {
			t.Fatalf("delete %s = %v, %v", inShard[i], ok, err)
		}
		deleted[inShard[i]] = true
	}
	if 10*len(deleted) < 3*(len(inShard)+1) {
		t.Fatalf("deleted %d of shard %d's %d records; want at least 30%%", len(deleted), victim, len(inShard)+1)
	}
	for i := range 10 {
		add(fmt.Sprintf("new-%d", i), int64(1000+i))
	}
	page()
	if err := ix.SaveDir(); err != nil {
		t.Fatal(err)
	}
	if ix.compactions.Load() == 0 {
		t.Fatal("SaveDir did not compact the victim shard")
	}
	page()
	if cursor == "" {
		t.Fatal("the walk ended before the reopen")
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if ix, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for cursor != "" {
		page()
	}

	for i := range n {
		name := fmt.Sprintf("rec-%d", i)
		if !deleted[name] && seen[name] != 1 {
			t.Errorf("%s, live throughout, seen %d times", name, seen[name])
		}
	}
	for name, times := range seen {
		if times > 1 {
			t.Errorf("%s seen %d times", name, times)
		}
	}
	if want := n - len(deleted) + 10; ix.Len() != want || len(recordNames(t, ix)) != want {
		t.Fatalf("reopened Len = %d, walk lists %d; want %d", ix.Len(), len(recordNames(t, ix)), want)
	}
}

// recordNames walks every page of ix's Records and returns the names in
// walk order.
func recordNames(t testing.TB, ix *Index) []string {
	t.Helper()
	var names []string
	for cursor := ""; ; {
		page, next, err := ix.Records(cursor, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range page {
			names = append(names, s.Name)
		}
		if cursor = next; next == "" {
			return names
		}
	}
}

// TestRecordsCursorReadded: a walk whose cursor record is deleted and
// then added again must not skip the records between.
func TestRecordsCursorReadded(t *testing.T) {
	t.Skip("ROADMAP item 2b: a cursor names a record, not one add of it; the walk resumes after the new add and misses those between")
	sk, _ := NewSketcher(4, 16)
	ix := NewIndex("readded", 4, 16)
	for _, n := range []string{"a", "b", "c"} {
		ix.Add(sk.Sketch(Record{Name: n, Data: []byte("payload of " + n)}))
	}
	_, cursor, _ := ix.Records("", 1)
	ix.Delete(cursor)
	ix.Add(sk.Sketch(Record{Name: cursor, Data: []byte("payload of " + cursor)}))
	if page, _, err := ix.Records(cursor, 10); !errors.Is(err, ErrCursorGone) && len(page) < 2 {
		t.Fatalf("after %q was deleted and added again the walk resumed with %d records, %v; b and c were indexed all along", cursor, len(page), err)
	}
}
