package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"
)

// FuzzRecordsCursor drives adds, deletes and Records page calls over a
// small index from the input bytes, against a slice model of insertion
// order, and holds Records to its contract: each page is the model's
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
		var order []string              // the model: indexed names, in insertion order
		incarnation := map[string]int{} // name -> which add of it is indexed
		walking, cursor, cursorOf := false, "", 0
		var began, seen map[string]int // incarnations live at the walk's start, and seen by it
		for _, b := range prog {
			name := fmt.Sprintf("r%d", b>>2&7)
			switch b & 3 {
			case 0, 1:
				added, err := ix.Add(sk.Sketch(Record{Name: name, Data: []byte("payload of " + name)}))
				if err != nil || added == slices.Contains(order, name) {
					t.Fatalf("add %s = %v, %v with %v indexed", name, added, err, order)
				}
				if added {
					order = append(order, name)
					incarnation[name]++
				}
			case 2:
				if ok, err := ix.Delete(name); err != nil || ok != slices.Contains(order, name) {
					t.Fatalf("delete %s = %v, %v with %v indexed", name, ok, err, order)
				}
				order = slices.DeleteFunc(order, func(n string) bool { return n == name })
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
