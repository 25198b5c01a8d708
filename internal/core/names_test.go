package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// collidingNames returns n names whose FNV-1a values agree in the low 12
// bits, so they share a stripe at any power-of-two stripe count up to
// 4096.
func collidingNames(n int) []string {
	out := []string{"c0"}
	want := fnv1a("c0") & 0xfff
	for i := 1; len(out) < n; i++ {
		if name := "c" + strconv.Itoa(i); fnv1a(name)&0xfff == want {
			out = append(out, name)
		}
	}
	return out
}

// benchName is the benchmark corpus's name for record i: family i/20,
// member i%20.
func benchName(i int) string {
	return "f" + strconv.Itoa(i/20) + "-m" + strconv.Itoa(i%20)
}

// nameModel drives a nameTable the way a shard does — dead bits, adds
// that look the name up first, compactions that rebuild the table from
// the live rows — next to a map[string]int32 reference.
type nameModel struct {
	t     testing.TB
	tab   nameTable
	dead  []uint64
	rows  []string         // every row's name, dead ones included
	live  map[string]int32 // the reference: name -> live row
	known []string         // every name ever added, to look up after each step
	grows int
}

func newNameModel(t testing.TB) *nameModel {
	return &nameModel{t: t, live: map[string]int32{}}
}

func (m *nameModel) add(name string) {
	if _, ok := m.live[name]; ok {
		if m.tab.lookup(name, m.dead) != m.live[name] {
			m.t.Fatalf("add %q: lookup = %d, want live row %d", name, m.tab.lookup(name, m.dead), m.live[name])
		}
		return
	}
	if got := m.tab.lookup(name, m.dead); got != -1 {
		m.t.Fatalf("add %q: lookup = %d before the add, want a miss", name, got)
	}
	before := len(m.tab.slots)
	row := m.tab.add(name, m.dead)
	if int(row) != len(m.rows) {
		m.t.Fatalf("add %q: row %d, want %d", name, row, len(m.rows))
	}
	if !slices.Contains(m.known, name) {
		m.known = append(m.known, name)
	}
	m.rows = append(m.rows, name)
	m.live[name] = row
	if len(m.tab.slots) != before {
		// A grow files the live rows and nothing else.
		m.grows++
		if m.tab.filed != len(m.live) {
			m.t.Fatalf("grow to %d slots filed %d rows, want the %d live ones", len(m.tab.slots), m.tab.filed, len(m.live))
		}
	}
}

func (m *nameModel) delete(name string) {
	row, ok := m.live[name]
	if !ok {
		row = -1
	}
	if got := m.tab.lookup(name, m.dead); got != row {
		m.t.Fatalf("delete %q: lookup = %d, want %d", name, got, row)
	}
	if !ok {
		return
	}
	for len(m.dead) <= int(row)>>6 {
		m.dead = append(m.dead, 0)
	}
	m.dead[row>>6] |= 1 << uint(row&63)
	delete(m.live, name)
}

// compact rebuilds the table from the live rows in row order, as
// shard.compactLocked does, and renumbers the reference.
func (m *nameModel) compact() {
	liveBytes := 0
	for name := range m.live {
		liveBytes += len(name)
	}
	tab := newNameTable(len(m.live), len(m.live), liveBytes)
	var rows []string
	for i, name := range m.rows {
		if bitSet(m.dead, int32(i)) {
			continue
		}
		m.live[name] = tab.add(name, nil)
		rows = append(rows, name)
	}
	m.tab, m.rows, m.dead = tab, rows, nil
}

// check holds the table to the reference: every name ever added looks up
// to its live row or misses, every row reads back its name, and the
// index is a power of two at most 3/4 full that files every live row
// exactly once.
func (m *nameModel) check(what string) {
	for _, name := range m.known {
		want, ok := m.live[name]
		if !ok {
			want = -1
		}
		if got := m.tab.lookup(name, m.dead); got != want {
			m.t.Fatalf("%s: lookup %q = %d, want %d", what, name, got, want)
		}
	}
	if m.tab.len() != len(m.rows) {
		m.t.Fatalf("%s: %d rows, want %d", what, m.tab.len(), len(m.rows))
	}
	for i, name := range m.rows {
		if got := m.tab.name(int32(i)); got != name || !m.tab.is(int32(i), name) {
			m.t.Fatalf("%s: row %d reads %q, want %q", what, i, got, name)
		}
	}
	n := len(m.tab.slots)
	if n != 0 && (n < 8 || n&(n-1) != 0 || 64-m.tab.shift != uint(bits.Len(uint(n-1)))) {
		m.t.Fatalf("%s: %d slots, shift %d", what, n, m.tab.shift)
	}
	filed, seen := 0, map[int32]int{}
	for _, s := range m.tab.slots {
		if s != 0 {
			filed++
			seen[int32(s-1)]++
		}
	}
	if filed != m.tab.filed || 4*filed > 3*n {
		m.t.Fatalf("%s: %d slots filed, counted %d, of %d", what, filed, m.tab.filed, n)
	}
	for name, row := range m.live {
		if seen[row] != 1 {
			m.t.Fatalf("%s: live row %d (%q) filed %d times", what, row, name, seen[row])
		}
	}
}

// FuzzNameTable runs add / delete / re-add / lookup / grow / compact
// programs against a map[string]int32 reference over a pool of names
// that collide in FNV-1a's low bits, names JSON escapes and a 1-byte
// name, and fresh names that make the index grow with dead rows in it.
// Two bytes make a step: the operation and a pool index.
func FuzzNameTable(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for range 8 {
		prog := make([]byte, 400)
		rng.Read(prog)
		f.Add(prog)
	}
	f.Add([]byte{0, 1, 1, 1, 0, 1, 1, 1, 0, 1, 3, 0, 2, 1}) // add, delete, re-add, twice, then compact
	pool := append(collidingNames(24), `a"b`, "<tag>&", "naïve-日本", "x")
	for i := 0; len(pool) < 40; i++ {
		pool = append(pool, benchName(i))
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1024 {
			prog = prog[:1024]
		}
		m := newNameModel(t)
		fresh := 0
		for i := 0; i+1 < len(prog); i += 2 {
			name := pool[int(prog[i+1])%len(pool)]
			switch prog[i] % 6 {
			case 0, 1:
				m.add(name)
			case 2:
				m.delete(name)
			case 3: // now and then a compaction, else a fresh name's delete
				if prog[i+1]%8 == 0 || fresh == 0 {
					m.compact()
				} else {
					m.delete("g" + strconv.Itoa(int(prog[i+1])*7%fresh))
				}
			case 4: // enough fresh names to grow the index now and then
				for range 1 + int(prog[i+1])%16 {
					m.add("g" + strconv.Itoa(fresh))
					fresh++
				}
			case 5: // a lookup; check does every name after each step
			}
			m.check(fmt.Sprintf("step %d (op %d %q)", i/2, prog[i]%6, name))
			if err := checkNames(&m.tab, m.dead); err != nil {
				t.Fatalf("step %d: %v", i/2, err)
			}
		}
	})
}

// benchStripes files n benchmark-corpus names into 16 stripes as Open
// builds them: each table sized once from its row count and name bytes.
func benchStripes(n int) []nameTable {
	var byStripe [DefaultShards][]string
	for i := range n {
		name := benchName(i)
		si := shardFor(name, DefaultShards)
		byStripe[si] = append(byStripe[si], name)
	}
	tabs := make([]nameTable, DefaultShards)
	for si, names := range byStripe {
		nameBytes := 0
		for _, name := range names {
			nameBytes += len(name)
		}
		tabs[si] = newNameTable(len(names), len(names), nameBytes)
		for _, name := range names {
			tabs[si].add(name, nil)
		}
	}
	return tabs
}

// TestNameBytesPerRecord is the table's size rung: over the benchmark
// corpus's 50 000 names, opened and then grown by 64 appended rows a
// stripe, the arrays (by capacity) cost at most 24 B a record beyond the
// names themselves — against ~60 B for a map[string]int32 and a
// []string.
func TestNameBytesPerRecord(t *testing.T) {
	const n, appended = 50_000, 64
	tabs := benchStripes(n)
	names, bytes := 0, 0
	next := n
	for si := range tabs {
		tab := &tabs[si]
		for added := 0; added < appended; next++ {
			if name := benchName(next); shardFor(name, DefaultShards) == si {
				tab.add(name, nil)
				added++
			}
		}
		names += len(tab.buf)
		bytes += cap(tab.buf) + 4*cap(tab.ends) + 4*cap(tab.slots)
	}
	records := n + appended*DefaultShards
	over := float64(bytes-names) / float64(records)
	t.Logf("%d records: %.1f B of name and %.1f B of table a record", records, float64(names)/float64(records), over)
	if over > 24 {
		t.Fatalf("the name table costs %.1f B a record beyond the names, want at most 24", over)
	}
}

// TestNameTableProbes: the names of one stripe agree in FNV-1a's low
// bits, so the home slot comes from the key's top bits; a hit takes at
// most a few probes on average.
func TestNameTableProbes(t *testing.T) {
	var names []string
	for i := 0; len(names) < 3000; i++ {
		if name := benchName(i); shardFor(name, DefaultShards) == 0 {
			names = append(names, name)
		}
	}
	tab := newNameTable(0, 0, 0)
	for _, name := range names {
		tab.add(name, nil)
	}
	mask := len(tab.slots) - 1
	probes := 0
	for row, name := range names {
		probes++
		for i := tab.home(nameKey(name)); tab.slots[i] != uint32(row)+1; i = (i + 1) & mask {
			probes++
		}
	}
	mean := float64(probes) / float64(len(names))
	t.Logf("%.2f probes a hit over %d slots", mean, len(tab.slots))
	if mean > 3 {
		t.Fatalf("a hit takes %.1f probes on average over %d slots, want at most 3", mean, len(tab.slots))
	}
}

// BenchmarkNameTable is the name table's lookup rung at 50 000 benchmark
// names over 16 stripes: a hit, a miss, and an add, which is a miss
// lookup and an append as shard.add does it (the ingest path).
func BenchmarkNameTable(b *testing.B) {
	const n = 50_000
	tabs := benchStripes(n)
	names := make([]string, 2*n) // the corpus, then as many names it lacks
	for i := range names {
		names[i] = benchName(i)
	}
	b.Run("hit", func(b *testing.B) {
		for i := range b.N {
			name := names[i%n]
			if tabs[shardFor(name, DefaultShards)].lookup(name, nil) < 0 {
				b.Fatal("miss")
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		for i := range b.N {
			name := names[n+i%n]
			if tabs[shardFor(name, DefaultShards)].lookup(name, nil) >= 0 {
				b.Fatal("hit")
			}
		}
	})
	b.Run("add", func(b *testing.B) {
		const batch = 4096
		var work []nameTable
		for i := range b.N {
			if i%batch == 0 {
				b.StopTimer()
				work = slices.Clone(tabs)
				for si := range work {
					w := &work[si]
					w.buf, w.ends, w.slots = slices.Clone(w.buf), slices.Clone(w.ends), slices.Clone(w.slots)
				}
				b.StartTimer()
			}
			name := names[n+i%batch]
			tab := &work[shardFor(name, DefaultShards)]
			if tab.lookup(name, nil) >= 0 {
				b.Fatal("hit")
			}
			tab.add(name, nil)
		}
	})
}
