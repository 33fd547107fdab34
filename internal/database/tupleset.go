package database

// This file implements the compact tuple-key layer: a 64-bit tuple hash and
// an arena-backed deduplication set. Together they replace the string-keyed
// maps (one string allocation per probe, one per stored key) that used to
// back every dedup site in the engine; probes are allocation-free and stored
// tuples live contiguously in a single growing arena.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211

	// entryBits is the low half of a slot word: entry number + 1, so the
	// zero word marks an empty slot. The high half is the hash's tag.
	entryBits = 1<<32 - 1
)

// Hash returns a 64-bit hash of the tuple: FNV-1a over the value words,
// followed by a 64-bit avalanche. The multiply in FNV only propagates
// entropy toward high bits, while open-addressed tables select slots from
// the low bits; the final mix spreads the entropy back down.
func (t Tuple) Hash() uint64 {
	h := uint64(fnvOffset64)
	for _, v := range t {
		h ^= uint64(v)
		h *= fnvPrime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// TupleSet is a deduplication set over tuples. Inserted tuples are copied
// back to back into one growing arena and addressed by an open-addressed
// slot table keyed on Tuple.Hash, so membership probes allocate nothing and
// a set of n tuples costs a few flat slices rather than n map entries.
// Tuples of different lengths may share a set. A TupleSet is not safe for
// concurrent use.
//
// A slot word carries the high 32 bits of the entry's hash (its tag) above
// entry+1, so a probe rejects almost every mismatch from the slot word
// alone and touches the arena only on a tag match. While every entry has
// the same width w, entry e spans arena[e*w:(e+1)*w] and no offsets are
// kept; the first entry of a different width switches the set to an
// offsets array. A set holds at most 2^32-1 entries, and a mixed-width set
// at most 2^31 values.
type TupleSet struct {
	arena []Value
	// width is the common entry width of a fixed-width set, or -1 once
	// entries of different widths arrived; offs then brackets the entries
	// (entry i spans arena[offs[i]:offs[i+1]], len(offs) is Len()+1).
	width int
	offs  []int32
	// hashes[e] is entry e's full hash, for rehashing and spill migration.
	hashes []uint64
	// slots is the open-addressed table: 0 empty, else tag | entry+1.
	slots []uint64
	mask  uint64
}

// NewTupleSet creates an empty set sized for about sizeHint entries.
func NewTupleSet(sizeHint int) *TupleSet {
	return NewTupleSetSized(sizeHint, 0)
}

// NewTupleSetSized creates an empty set sized for about sizeHint entries
// holding valueHint values in total (sizeHint × arity for fixed-arity
// callers). With both hints right, inserting the whole set allocates
// nothing beyond the initial slices: slot table, hash list and arena are
// all at final size up front.
func NewTupleSetSized(sizeHint, valueHint int) *TupleSet {
	if sizeHint < 0 {
		sizeHint = 0
	}
	if valueHint < 0 {
		valueHint = 0
	}
	n := slotsFor(sizeHint)
	return &TupleSet{
		arena:  make([]Value, 0, valueHint),
		hashes: make([]uint64, 0, sizeHint),
		slots:  make([]uint64, n),
		mask:   uint64(n - 1),
	}
}

// slotsFor returns the slot-table size holding n entries below the 3/4
// load factor.
func slotsFor(n int) int {
	s := 8
	for s*3/4 <= n {
		s <<= 1
	}
	return s
}

// Len returns the number of distinct tuples inserted.
func (s *TupleSet) Len() int { return len(s.hashes) }

// At returns entry i as a view into the arena, capped at its end. Views
// stay valid and immutable for the lifetime of the set; callers must not
// mutate them.
func (s *TupleSet) At(i int) Tuple {
	if w := s.width; w >= 0 {
		return Tuple(s.arena[i*w : i*w+w : i*w+w])
	}
	return Tuple(s.arena[s.offs[i]:s.offs[i+1]:s.offs[i+1]])
}

// HashAt returns the stored hash of entry i, letting spill migration move
// entries into a disk-backed table without rehashing the arena.
func (s *TupleSet) HashAt(i int) uint64 { return s.hashes[i] }

// findSlot returns the slot holding an entry equal to t, or the first empty
// slot of its probe sequence.
func (s *TupleSet) findSlot(h uint64, t Tuple) uint64 {
	tag := h &^ entryBits
	for i := h & s.mask; ; i = (i + 1) & s.mask {
		w := s.slots[i]
		if w == 0 || (w&^entryBits == tag && s.At(int(w&entryBits)-1).Equal(t)) {
			return i
		}
	}
}

// IndexOf returns the entry index of t, or -1 when absent.
func (s *TupleSet) IndexOf(t Tuple) int {
	return int(s.slots[s.findSlot(t.Hash(), t)]&entryBits) - 1
}

// Contains reports membership without inserting.
func (s *TupleSet) Contains(t Tuple) bool { return s.IndexOf(t) >= 0 }

// Add inserts t if absent, returning its entry index and whether it was
// newly inserted. The tuple is copied; t may be a transient view.
func (s *TupleSet) Add(t Tuple) (int, bool) {
	h := t.Hash()
	i := s.findSlot(h, t)
	if w := s.slots[i]; w != 0 {
		return int(w&entryBits) - 1, false
	}
	e := len(s.hashes)
	if s.width >= 0 && len(t) != s.width {
		if e == 0 {
			s.width = len(t)
		} else {
			s.toMixed()
		}
	}
	s.slots[i] = h&^entryBits | uint64(e+1)
	s.hashes = append(s.hashes, h)
	s.arena = append(s.arena, t...)
	if s.width < 0 {
		s.offs = append(s.offs, int32(len(s.arena)))
	}
	if uint64(len(s.hashes))*4 >= (s.mask+1)*3 {
		s.rehash(int(s.mask+1) * 2)
	}
	return e, true
}

// toMixed switches a fixed-width set to the offsets layout.
func (s *TupleSet) toMixed() {
	n := len(s.hashes)
	s.offs = make([]int32, n+1, cap(s.hashes)+1)
	for e := range s.offs {
		s.offs[e] = int32(e * s.width)
	}
	s.width = -1
}

// Insert inserts t if absent, reporting whether it was newly inserted.
func (s *TupleSet) Insert(t Tuple) bool {
	_, fresh := s.Add(t)
	return fresh
}

// InsertGet inserts t if absent and returns the stored copy — a stable
// arena view — along with whether it was newly inserted. Streaming dedup
// sites hand the view straight to consumers instead of cloning.
func (s *TupleSet) InsertGet(t Tuple) (Tuple, bool) {
	e, fresh := s.Add(t)
	return s.At(e), fresh
}

// Trim drops spare capacity: the arena, hash list and offsets are copied
// to their exact lengths and the slot table shrinks to the smallest size
// the load factor allows. Sets built from a size hint well above their
// final entry count (index keys over a relation with repeated keys) call
// it before being kept for the lifetime of a plan. Views handed out
// earlier stay valid.
func (s *TupleSet) Trim() {
	s.arena = exactValues(s.arena)
	if len(s.hashes) < cap(s.hashes) {
		s.hashes = append(make([]uint64, 0, len(s.hashes)), s.hashes...)
	}
	if len(s.offs) < cap(s.offs) {
		s.offs = append(make([]int32, 0, len(s.offs)), s.offs...)
	}
	if n := slotsFor(len(s.hashes)); n < len(s.slots) {
		s.rehash(n)
	}
}

// rehash rebuilds the slot table at size n (a power of two) from the
// stored hashes; the arena itself never moves entries.
func (s *TupleSet) rehash(n int) {
	s.slots = make([]uint64, n)
	s.mask = uint64(n - 1)
	for e, h := range s.hashes {
		i := h & s.mask
		for s.slots[i] != 0 {
			i = (i + 1) & s.mask
		}
		s.slots[i] = h&^entryBits | uint64(e+1)
	}
}
