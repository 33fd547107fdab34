package database

import (
	"math/rand"
	"slices"
	"testing"
)

// refIndex is the map-of-slices index the CSR layout replaces: key → rows
// in ascending order.
func refIndex(r *Relation, cols []int) map[string][]int32 {
	m := make(map[string][]int32)
	for i := 0; i < r.Len(); i++ {
		row := r.Row(i)
		key := make(Tuple, len(cols))
		for j, c := range cols {
			key[j] = row[c]
		}
		m[key.Key()] = append(m[key.Key()], int32(i))
	}
	return m
}

// randomRelation draws rows over a small domain, so keys repeat and whole
// rows are duplicated.
func randomRelation(rng *rand.Rand, arity, rows, domain int) *Relation {
	r := NewRelation("R", arity)
	vals := make([]Value, arity)
	for i := 0; i < rows; i++ {
		for j := range vals {
			vals[j] = V(int64(rng.Intn(domain)))
		}
		r.Append(vals...)
	}
	return r
}

// checkIndexAgainstRef compares every accessor of the CSR index with the
// reference, for every key present and for keys absent from r.
func checkIndexAgainstRef(t *testing.T, r *Relation, cols []int, absent []Tuple) {
	t.Helper()
	ix := r.BuildIndex(cols)
	ref := refIndex(r, cols)
	if ix.NumKeys() != len(ref) {
		t.Fatalf("cols %v: NumKeys = %d, want %d", cols, ix.NumKeys(), len(ref))
	}
	seen := make([]bool, ix.NumKeys())
	for i := 0; i < r.Len(); i++ {
		row := r.Row(i)
		key := make(Tuple, len(cols))
		for j, c := range cols {
			key[j] = row[c]
		}
		want := ref[key.Key()]
		got := ix.Lookup(key)
		if !slices.Equal(got, want) {
			t.Fatalf("cols %v key %v: Lookup = %v, want %v", cols, key, got, want)
		}
		if cap(got) != len(got) {
			t.Fatalf("cols %v key %v: Lookup view has spare capacity %d > %d", cols, key, cap(got), len(got))
		}
		if !slices.IsSorted(got) {
			t.Fatalf("cols %v key %v: rows %v not ascending", cols, key, got)
		}
		e := ix.EntryOf(key)
		if e < 0 || e >= ix.NumKeys() {
			t.Fatalf("cols %v key %v: EntryOf = %d outside [0,%d)", cols, key, e, ix.NumKeys())
		}
		if at := ix.RowsAt(e); !slices.Equal(at, want) || cap(at) != len(at) {
			t.Fatalf("cols %v key %v: RowsAt(%d) = %v (cap %d), want %v", cols, key, e, at, cap(at), want)
		}
		if !ix.Contains(key) {
			t.Fatalf("cols %v key %v: Contains = false", cols, key)
		}
		seen[e] = true
	}
	for e, ok := range seen {
		if !ok {
			t.Fatalf("cols %v: entry %d belongs to no key", cols, e)
		}
	}
	for _, key := range absent {
		if _, present := ref[key.Key()]; present {
			continue
		}
		if ix.Contains(key) || ix.EntryOf(key) != -1 || ix.Lookup(key) != nil {
			t.Fatalf("cols %v: absent key %v found", cols, key)
		}
	}
}

// TestIndexCSRMatchesReference checks the CSR index against the
// map-of-slices reference over random relations with repeated keys and
// duplicate rows, on every column subset including the empty one.
func TestIndexCSRMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	colSets := [][]int{{}, {0}, {1}, {2}, {0, 1}, {2, 0}, {1, 2}, {0, 1, 2}, {0, 0}}
	absent := []Tuple{{}, {V(-1)}, {V(-1), V(-1)}, {V(-1), V(0), V(-1)}, {V(0), V(0), V(0), V(0)}}
	for trial := 0; trial < 20; trial++ {
		r := randomRelation(rng, 3, rng.Intn(300), 2+rng.Intn(6))
		for _, cols := range colSets {
			checkIndexAgainstRef(t, r, cols, absent)
		}
	}
}

func TestIndexCSREdgeCases(t *testing.T) {
	t.Run("empty relation", func(t *testing.T) {
		r := NewRelation("E", 2)
		for _, cols := range [][]int{{}, {0}, {0, 1}} {
			ix := r.BuildIndex(cols)
			if ix.NumKeys() != 0 || ix.Contains(Tuple{V(1)}) || ix.Lookup(Tuple{}) != nil || ix.EntryOf(Tuple{V(1), V(2)}) != -1 {
				t.Fatalf("cols %v: empty relation index not empty", cols)
			}
		}
	})
	t.Run("zero key columns", func(t *testing.T) {
		r := NewRelation("Z", 1)
		for i := int64(0); i < 5; i++ {
			r.AppendInts(i)
		}
		ix := r.BuildIndex(nil)
		if ix.NumKeys() != 1 || !slices.Equal(ix.Lookup(Tuple{}), []int32{0, 1, 2, 3, 4}) {
			t.Fatalf("empty key: NumKeys %d rows %v", ix.NumKeys(), ix.Lookup(Tuple{}))
		}
	})
	t.Run("duplicate rows", func(t *testing.T) {
		r := NewRelation("D", 2)
		for i := 0; i < 4; i++ {
			r.AppendInts(7, 8)
			r.AppendInts(1, 2)
		}
		checkIndexAgainstRef(t, r, []int{0, 1}, nil)
		if got := r.BuildIndex([]int{0, 1}).Lookup(Tuple{V(7), V(8)}); !slices.Equal(got, []int32{0, 2, 4, 6}) {
			t.Fatalf("duplicate rows: Lookup = %v", got)
		}
	})
	t.Run("nullary relation", func(t *testing.T) {
		r := NewRelation("N", 0)
		r.Append()
		r.Append()
		ix := r.BuildIndex(nil)
		if ix.NumKeys() != 1 || !slices.Equal(ix.Lookup(Tuple{}), []int32{0, 1}) {
			t.Fatalf("nullary: NumKeys %d rows %v", ix.NumKeys(), ix.Lookup(Tuple{}))
		}
	})
}

// checkSetAgainstRef verifies every entry of s against the reference map
// of tuple key → entry index.
func checkSetAgainstRef(t *testing.T, s *TupleSet, ref map[string]int) {
	t.Helper()
	if s.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(ref))
	}
	for i := 0; i < s.Len(); i++ {
		tu := s.At(i)
		if want, ok := ref[tu.Key()]; !ok || want != i {
			t.Fatalf("At(%d) = %v, reference entry %d (present %v)", i, tu, want, ok)
		}
		if cap(tu) != len(tu) {
			t.Fatalf("At(%d) view has spare capacity", i)
		}
		if s.IndexOf(tu) != i {
			t.Fatalf("IndexOf(At(%d)) = %d", i, s.IndexOf(tu))
		}
		if s.HashAt(i) != tu.Hash() {
			t.Fatalf("HashAt(%d) = %x, want %x", i, s.HashAt(i), tu.Hash())
		}
	}
}

// TestTupleSetMixedWidthsAgainstReference inserts tuples of widths 0–3 in
// random order, starting fixed-width and switching to the offsets layout
// part-way, through several slot-table doublings, and checks entry
// numbers, views and stored hashes against a map reference throughout.
func TestTupleSetMixedWidthsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewTupleSet(0)
	ref := make(map[string]int)
	insert := func(tu Tuple) {
		e, fresh := s.Add(tu)
		want, dup := ref[tu.Key()]
		if fresh == dup {
			t.Fatalf("Add(%v) fresh = %v, reference has it = %v", tu, fresh, dup)
		}
		if dup && e != want {
			t.Fatalf("Add(%v) = entry %d, want %d", tu, e, want)
		}
		if !dup {
			ref[tu.Key()] = e
		}
	}
	// A fixed-width prefix long enough to grow the slot table, then the
	// first entry of another width migrates the set to offsets.
	for i := 0; i < 100; i++ {
		insert(Tuple{V(int64(rng.Intn(60))), V(int64(rng.Intn(3)))})
	}
	checkSetAgainstRef(t, s, ref)
	early := s.At(0).Clone()
	for i := 0; i < 3000; i++ {
		w := rng.Intn(4)
		tu := make(Tuple, w)
		for j := range tu {
			tu[j] = V(int64(rng.Intn(12)))
		}
		insert(tu)
	}
	checkSetAgainstRef(t, s, ref)
	if !s.At(0).Equal(early) {
		t.Fatalf("entry 0 changed across migration: %v, want %v", s.At(0), early)
	}
	s.Trim()
	checkSetAgainstRef(t, s, ref)
	if s.Contains(Tuple{V(99), V(99), V(99), V(99)}) {
		t.Fatal("never-inserted tuple found")
	}
}

// TestTupleSetTrimShrinks checks that Trim drops the spare capacity of an
// over-sized set and keeps it fully usable.
func TestTupleSetTrimShrinks(t *testing.T) {
	s := NewTupleSetSized(1<<12, 2<<12)
	ref := make(map[string]int)
	for i := int64(0); i < 100; i++ {
		tu := Tuple{V(i % 50), V(i % 50)}
		e, fresh := s.Add(tu)
		if fresh {
			ref[tu.Key()] = e
		}
	}
	s.Trim()
	if cap(s.arena) != len(s.arena) || cap(s.hashes) != len(s.hashes) {
		t.Fatalf("Trim left spare capacity: arena %d/%d hashes %d/%d",
			len(s.arena), cap(s.arena), len(s.hashes), cap(s.hashes))
	}
	if len(s.slots) != slotsFor(50) {
		t.Fatalf("slot table %d after Trim, want %d", len(s.slots), slotsFor(50))
	}
	checkSetAgainstRef(t, s, ref)
	if !s.Insert(Tuple{V(1000), V(1000)}) || !s.Contains(Tuple{V(1000), V(1000)}) {
		t.Fatal("insert after Trim failed")
	}
}

// TestTupleSetTagCollision finds two distinct tuples whose hashes share
// the high 32 bits (the slot tag) and the low bits selecting their home
// slot in an 8-slot table, by hashing single-value tuples until a pair
// turns up. Both must live in one set as separate entries: a tag match
// alone must not pass for equality.
func TestTupleSetTagCollision(t *testing.T) {
	const homeBits = 7 // mask of an 8-slot table
	seen := make(map[uint64]int64, 1<<18)
	var a, b Tuple
	for i := int64(0); i < 1<<21 && a == nil; i++ {
		h := (Tuple{V(i)}).Hash()
		key := h&^entryBits | h&homeBits
		if j, ok := seen[key]; ok {
			a, b = Tuple{V(j)}, Tuple{V(i)}
		}
		seen[key] = i
	}
	if a == nil {
		t.Fatal("no tag collision among 2^21 tuples")
	}
	ha, hb := a.Hash(), b.Hash()
	if ha == hb || ha>>32 != hb>>32 {
		t.Fatalf("%v and %v: hashes %x and %x are not a tag collision", a, b, ha, hb)
	}
	s := NewTupleSet(0)
	if !s.Insert(a) {
		t.Fatal("first insert not fresh")
	}
	if s.Contains(b) || s.IndexOf(b) != -1 {
		t.Fatalf("%v reported present after inserting only %v", b, a)
	}
	if !s.Insert(b) {
		t.Fatalf("%v deduplicated against %v", b, a)
	}
	if s.Len() != 2 || s.IndexOf(a) != 0 || s.IndexOf(b) != 1 {
		t.Fatalf("Len %d IndexOf %d/%d, want 2 entries 0/1", s.Len(), s.IndexOf(a), s.IndexOf(b))
	}
	if s.Insert(a) || s.Insert(b) {
		t.Fatal("re-insert reported fresh")
	}
}
