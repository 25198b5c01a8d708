package core

import "math"

// nameTable holds one stripe's record names and finds a live row by
// name. It is three flat arrays and no pointers: the names back to back
// in buf, each row's end offset in ends, and an open-addressing index
// over the rows in slots: a name costs its bytes, a 4-byte end and
// 4/load bytes of index. None of it depends on where it sits, so the
// arrays could be written out and mapped back as they are.
//
// Deletes are the stripe's dead bits, which every method that looks a
// row up takes: a tombstoned row keeps its slot, lookups pass over it,
// and the next grow (which files live rows only) or compaction (which
// builds a fresh table) drops it. A re-added name files a new slot.
type nameTable struct {
	buf   []byte   // every row's name, back to back
	ends  []uint32 // row i's name is buf[ends[i-1]:ends[i]]; the start of row 0 is 0
	slots []uint32 // 0 = empty, else row+1; a power of two long, at most 3/4 filled
	filed int      // non-empty slots
	shift uint     // 64 - log2(len(slots)): a key's home slot is its top bits
}

// newNameTable returns an empty table with room for rows names of
// nameBytes bytes in all, live of them filed, so a table built in one
// pass never regrows.
func newNameTable(rows, live, nameBytes int) nameTable {
	var t nameTable
	t.buf = make([]byte, 0, nameBytes)
	t.ends = make([]uint32, 0, rows)
	if live > 0 {
		t.resize(live)
	}
	return t
}

// len returns the number of rows, dead ones included.
func (t *nameTable) len() int { return len(t.ends) }

// span returns where row's name starts and ends in buf.
func (t *nameTable) span(row int32) (start, end uint32) {
	if row > 0 {
		start = t.ends[row-1]
	}
	return start, t.ends[row]
}

// name returns a copy of row's name.
func (t *nameTable) name(row int32) string {
	s, e := t.span(row)
	return string(t.buf[s:e])
}

// is reports whether row is named name, without allocating.
func (t *nameTable) is(row int32, name string) bool {
	s, e := t.span(row)
	return string(t.buf[s:e]) == name
}

// nameKey is a name's index key: shardFor's FNV-1a value whitened by
// mix64. Its top bits pick the home slot, since the low bits of the
// FNV-1a value are what picked the stripe.
func nameKey[S string | []byte](name S) uint64 { return mix64(fnv1a(name)) }

// home returns the slot the probe for key starts at.
func (t *nameTable) home(key uint64) int { return int(key >> t.shift) }

// lookup returns the live row named name, or -1.
func (t *nameTable) lookup(name string, dead []uint64) int32 {
	if len(t.slots) == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := t.home(nameKey(name)); t.slots[i] != 0; i = (i + 1) & mask {
		row := int32(t.slots[i] - 1)
		if t.is(row, name) && !bitSet(dead, row) {
			return row
		}
	}
	return -1
}

// fits reports whether one more row named name keeps every end offset
// within 32 bits.
func (t *nameTable) fits(name string) bool {
	return uint64(len(t.buf))+uint64(len(name)) <= math.MaxUint32
}

// add appends a row named name and files it in the index unless its dead
// bit is already set (Open restoring a tombstone); it returns the row.
// Callers check fits first.
func (t *nameTable) add(name string, dead []uint64) int32 {
	row := int32(len(t.ends))
	t.buf = append(t.buf, name...)
	t.ends = append(t.ends, uint32(len(t.buf)))
	if bitSet(dead, row) {
		return row
	}
	if 4*(t.filed+1) > 3*len(t.slots) {
		live := 1
		for r := range row {
			if !bitSet(dead, r) {
				live++
			}
		}
		t.resize((3*live + 1) / 2) // at most half full after the rehash
		for r := range row {
			if !bitSet(dead, r) {
				s, e := t.span(r)
				t.file(r, nameKey(t.buf[s:e]))
			}
		}
	}
	t.file(row, nameKey(name))
	return row
}

// resize replaces the index with an empty one of the smallest power of
// two, at least 8, that holds rows at 3/4 load.
func (t *nameTable) resize(rows int) {
	n, shift := 8, uint(61)
	for 4*rows > 3*n {
		n, shift = 2*n, shift-1
	}
	t.slots, t.filed, t.shift = make([]uint32, n), 0, shift
}

// file puts row in the first empty slot of its key's probe.
func (t *nameTable) file(row int32, key uint64) {
	mask := len(t.slots) - 1
	i := t.home(key)
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = uint32(row) + 1
	t.filed++
}

// fnv1a is the 64-bit FNV-1a hash of name: shardFor's stripe choice and,
// whitened, the name table's key.
func fnv1a[S string | []byte](name S) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return h
}
