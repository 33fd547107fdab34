// Package database implements the in-memory storage substrate: values,
// tuples, relations, database instances and hash indexes.
//
// The paper assumes the DRAM model: registers of O(log n) bits with O(1)
// lookups into tables of polynomial size. We realise the model with int64
// values, flat row-major relation storage and hash indexes; all "constant
// time" register operations become expected-constant-time hash operations.
//
// Values support an 8-bit tag alongside a 56-bit payload. Tags implement the
// paper's "concatenate the variable name to the value" trick (proof of
// Lemma 14 and the encodings in Examples 18, 31 and 39): a constant (c, v)
// for variable v is a payload c tagged with v's index.
//
// # Memory layout
//
// Preprocessing allocates per operator, never per tuple:
//
//   - A Relation is one flat row-major []Value. Project, Semijoin, Filter
//     and Dedup hand back exact-sized storage, so a relation kept by a
//     bound plan carries no growth slack.
//   - A TupleSet (dedup set and index key dictionary) stores its tuples back
//     to back in one arena; while all entries share a width w, entry e is
//     arena[e*w:(e+1)*w] and no offsets array exists. Its open-addressed
//     slot table holds one uint64 per slot: the high 32 bits of the tuple's
//     hash above entry+1 (0 marks an empty slot). A probe compares the tag
//     first and reads the arena only on a tag match, so a miss costs one
//     cache line of the slot table. The full hashes are kept beside the
//     arena for rehashing and spill migration.
//   - An Index is in CSR form: a TupleSet interns the distinct keys, and the
//     rows of key entry e are rows[offs[e]:offs[e+1]] in ascending row
//     order — two int32 arrays for the whole index instead of one slice per
//     key. BuildIndex fills them with a counting pass over per-row entry
//     numbers.
package database

import (
	"fmt"
	"sort"
	"strings"
)

// Value is a database constant: an 8-bit tag and a 56-bit signed payload.
// Plain constants have tag 0.
type Value int64

const (
	payloadBits = 56
	// MaxPayload is the largest payload storable in a Value.
	MaxPayload = int64(1)<<(payloadBits-1) - 1
	// MinPayload is the smallest payload storable in a Value.
	MinPayload = -(int64(1) << (payloadBits - 1))
)

// V builds an untagged value. It panics when the payload is out of range;
// workloads in this repository stay far below the 56-bit limit.
func V(payload int64) Value {
	return TaggedValue(payload, 0)
}

// TaggedValue builds a value carrying a tag. Tagged values with different
// tags always compare unequal, which is what makes the Lemma 14 encoding
// assign disjoint domains to distinct variables.
func TaggedValue(payload int64, tag uint8) Value {
	if payload > MaxPayload || payload < MinPayload {
		panic(fmt.Sprintf("database: payload %d out of range", payload))
	}
	return Value(int64(tag)<<payloadBits | (payload & (1<<payloadBits - 1)))
}

// Tag returns the value's tag.
func (v Value) Tag() uint8 {
	return uint8(uint64(v) >> payloadBits)
}

// Payload returns the value's payload, sign-extended.
func (v Value) Payload() int64 {
	return int64(v) << (64 - payloadBits) >> (64 - payloadBits)
}

// String renders the value; tagged values render as payload#tag.
func (v Value) String() string {
	if t := v.Tag(); t != 0 {
		return fmt.Sprintf("%d#%d", v.Payload(), t)
	}
	return fmt.Sprintf("%d", v.Payload())
}

// Tuple is a sequence of values. Tuples obtained from relations are views
// into shared storage and must not be mutated or retained across appends.
type Tuple []Value

// Clone returns an owned copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Equal reports element-wise equality.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Key encodes the tuple as a string map key. The engine's own dedup sites
// use Hash and TupleSet instead; Key remains for tests and external callers
// that want a map-friendly identity.
func (t Tuple) Key() string {
	return encodeKey(t)
}

// Less orders tuples lexicographically; used for deterministic output.
func (t Tuple) Less(u Tuple) bool {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if t[i] != u[i] {
			return t[i] < u[i]
		}
	}
	return len(t) < len(u)
}

// String renders the tuple as (a,b,c).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// encodeKey packs values into a string usable as a hash key.
func encodeKey(vals []Value) string {
	b := make([]byte, 0, len(vals)*8)
	for _, v := range vals {
		u := uint64(v)
		b = append(b,
			byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
			byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
	}
	return string(b)
}

// Relation is a bag-free (set-semantics is enforced by callers via Dedup or
// index-guarded inserts) table with flat row-major storage.
type Relation struct {
	Name  string
	arity int
	data  []Value
	// nullaryLen counts rows of arity-0 relations, which carry no data.
	nullaryLen int
}

// NewRelation creates an empty relation of the given arity. Arity zero is
// allowed: a nullary relation holds either zero rows or one empty row.
func NewRelation(name string, arity int) *Relation {
	if arity < 0 {
		panic("database: negative arity")
	}
	return &Relation{Name: name, arity: arity}
}

// Arity returns the number of columns.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of rows. Nullary relations track their row count
// explicitly via AppendEmptyRow.
func (r *Relation) Len() int {
	if r.arity == 0 {
		return r.nullaryLen
	}
	return len(r.data) / r.arity
}

// Append adds one row. It panics on arity mismatch: relation loading is
// programmatic here and an arity error is a bug, not input error.
func (r *Relation) Append(vals ...Value) {
	if len(vals) != r.arity {
		panic(fmt.Sprintf("database: relation %s arity %d, got %d values", r.Name, r.arity, len(vals)))
	}
	if r.arity == 0 {
		r.nullaryLen++
		return
	}
	r.data = append(r.data, vals...)
}

// AppendInts adds one row of untagged values.
func (r *Relation) AppendInts(vals ...int64) {
	if len(vals) != r.arity {
		panic(fmt.Sprintf("database: relation %s arity %d, got %d values", r.Name, r.arity, len(vals)))
	}
	for _, v := range vals {
		r.data = append(r.data, V(v))
	}
	if r.arity == 0 {
		r.nullaryLen++
	}
}

// Row returns a view of row i, capped at the row's end. The view is valid
// until the next Append.
func (r *Relation) Row(i int) Tuple {
	if r.arity == 0 {
		return Tuple{}
	}
	lo, hi := i*r.arity, (i+1)*r.arity
	return Tuple(r.data[lo:hi:hi])
}

// Rows returns owned copies of all rows, for tests and small outputs.
func (r *Relation) Rows() []Tuple {
	out := make([]Tuple, r.Len())
	for i := range out {
		out[i] = r.Row(i).Clone()
	}
	return out
}

// SortedRows returns owned copies of all rows in lexicographic order.
func (r *Relation) SortedRows() []Tuple {
	out := r.Rows()
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Dedup removes duplicate rows in place (stable on first occurrence). A
// relation that shrinks is copied to its exact size.
func (r *Relation) Dedup() {
	if r.arity == 0 {
		if r.nullaryLen > 1 {
			r.nullaryLen = 1
		}
		return
	}
	n := r.Len()
	seen := NewTupleSetSized(n, len(r.data))
	out := r.data[:0]
	for i := 0; i < n; i++ {
		row := r.Row(i)
		if seen.Insert(row) {
			out = append(out, row...)
		}
	}
	r.data = exactValues(out)
}

// RowSet returns a TupleSet holding the relation's distinct rows, with no
// spare capacity: the membership structure a plan keeps beside a relation.
func (r *Relation) RowSet() *TupleSet {
	n := r.Len()
	set := NewTupleSetSized(n, len(r.data))
	for i := 0; i < n; i++ {
		set.Insert(r.Row(i))
	}
	set.Trim()
	return set
}

// Grow reserves room for rows more rows, so that many Appends allocate
// nothing. The capacity is exact: a relation filled to the reserved size
// holds no spare capacity.
func (r *Relation) Grow(rows int) {
	if rows <= 0 || r.arity == 0 {
		return
	}
	if need := len(r.data) + rows*r.arity; need > cap(r.data) {
		data := make([]Value, len(r.data), need)
		copy(data, r.data)
		r.data = data
	}
}

// exactValues returns vals itself when it has no spare capacity, else an
// exact-sized copy. Operator outputs pass through it so that relations
// kept by a bound plan hold no growth slack.
func exactValues(vals []Value) []Value {
	if len(vals) == cap(vals) {
		return vals
	}
	out := make([]Value, len(vals))
	copy(out, vals)
	return out
}

// Clone returns a deep copy.
func (r *Relation) Clone() *Relation {
	out := NewRelation(r.Name, r.arity)
	if len(r.data) > 0 {
		out.data = make([]Value, len(r.data))
		copy(out.data, r.data)
	}
	out.nullaryLen = r.nullaryLen
	return out
}

// Project returns a new deduplicated relation holding the given columns of
// every row. The dedup set's arena, which holds exactly the distinct
// projected rows in first-occurrence order, becomes the output's storage.
func (r *Relation) Project(name string, cols []int) *Relation {
	for _, c := range cols {
		if c < 0 || c >= r.arity {
			panic(fmt.Sprintf("database: projection column %d out of range for arity %d", c, r.arity))
		}
	}
	out := NewRelation(name, len(cols))
	n := r.Len()
	if len(cols) == 0 {
		if n > 0 {
			out.nullaryLen = 1
		}
		return out
	}
	seen := NewTupleSetSized(n, n*len(cols))
	row := make(Tuple, len(cols))
	for i := 0; i < n; i++ {
		src := r.Row(i)
		for j, c := range cols {
			row[j] = src[c]
		}
		seen.Insert(row)
	}
	out.data = exactValues(seen.arena)
	return out
}

// Filter returns a new relation with the rows satisfying keep.
func (r *Relation) Filter(keep func(Tuple) bool) *Relation {
	out := NewRelation(r.Name, r.arity)
	if r.arity == 0 {
		if r.nullaryLen > 0 && keep(Tuple{}) {
			out.nullaryLen = r.nullaryLen
		}
		return out
	}
	data := make([]Value, 0, len(r.data))
	for i := 0; i < r.Len(); i++ {
		row := r.Row(i)
		if keep(row) {
			data = append(data, row...)
		}
	}
	out.data = exactValues(data)
	return out
}

// String renders the relation name, arity and row count.
func (r *Relation) String() string {
	return fmt.Sprintf("%s/%d[%d rows]", r.Name, r.arity, r.Len())
}

// Index is a hash index on a column subset of a relation. Lookups return
// row numbers. Keys are interned in a TupleSet, so a lookup hashes the key
// tuple in place and allocates nothing; the row lists are in CSR form
// (see the package comment).
type Index struct {
	rel  *Relation
	cols []int
	keys *TupleSet
	// Key entry e's rows are rows[offs[e]:offs[e+1]], in ascending order;
	// len(offs) is NumKeys()+1 and len(rows) the relation's row count.
	offs []int32
	rows []int32
}

// BuildIndex indexes the relation on the given columns. The index snapshots
// row numbers; it must be rebuilt if the relation changes.
//
// One pass interns every row's key and records its entry number; a
// counting pass over those entry numbers then sizes each key's run, and a
// placement pass fills the runs in row order. The build makes a constant
// number of allocations whatever the relation's size.
func (r *Relation) BuildIndex(cols []int) *Index {
	n := r.Len()
	ix := &Index{rel: r, cols: append([]int(nil), cols...), keys: NewTupleSetSized(n, n*len(cols))}
	entry := make([]int32, n)
	key := make(Tuple, len(cols))
	for i := 0; i < n; i++ {
		row := r.Row(i)
		for j, c := range cols {
			key[j] = row[c]
		}
		e, _ := ix.keys.Add(key)
		entry[i] = int32(e)
	}
	ix.keys.Trim()
	k := ix.keys.Len()
	// offs[e+1] counts entry e's rows; the prefix sum turns offs[e] into
	// the start of e's run, and placing row i at offs[e]++ leaves offs[e]
	// at the start of run e+1 — shifted back by one at the end.
	ix.offs = make([]int32, k+1)
	for _, e := range entry {
		ix.offs[e+1]++
	}
	for e := 1; e <= k; e++ {
		ix.offs[e] += ix.offs[e-1]
	}
	ix.rows = make([]int32, n)
	for i, e := range entry {
		ix.rows[ix.offs[e]] = int32(i)
		ix.offs[e]++
	}
	copy(ix.offs[1:], ix.offs[:k])
	ix.offs[0] = 0
	return ix
}

// Lookup returns the row numbers whose indexed columns equal key, in
// ascending order, as a read-only view capped at its end.
func (ix *Index) Lookup(key []Value) []int32 {
	e := ix.keys.IndexOf(key)
	if e < 0 {
		return nil
	}
	return ix.RowsAt(e)
}

// Contains reports whether any row matches key. Every interned key has at
// least one row, so membership in the key set suffices.
func (ix *Index) Contains(key []Value) bool {
	return ix.keys.Contains(key)
}

// NumKeys returns the number of distinct keys in the index.
func (ix *Index) NumKeys() int { return ix.keys.Len() }

// EntryOf returns the dense entry number of key (the e with
// RowsAt(e) == Lookup(key)), or -1 when no row matches. Entry numbers are
// stable for the lifetime of the index and span [0, NumKeys()).
func (ix *Index) EntryOf(key []Value) int {
	return ix.keys.IndexOf(key)
}

// RowsAt returns the row numbers of entry e, in ascending order, as a
// read-only view capped at its end.
func (ix *Index) RowsAt(e int) []int32 {
	lo, hi := ix.offs[e], ix.offs[e+1]
	return ix.rows[lo:hi:hi]
}

// Cols returns the indexed columns.
func (ix *Index) Cols() []int { return ix.cols }

// Semijoin keeps the rows of r whose cols-projection matches some row of s
// on sCols, returning a new relation (r ⋉ s). It builds a hash set over s.
func Semijoin(r *Relation, rCols []int, s *Relation, sCols []int) *Relation {
	if len(rCols) != len(sCols) {
		panic("database: semijoin column count mismatch")
	}
	// With no shared columns the key degenerates to the empty tuple and
	// the semijoin keeps all of r iff s is non-empty, as it should.
	set := NewTupleSetSized(s.Len(), s.Len()*len(sCols))
	key := make(Tuple, len(sCols))
	for i := 0; i < s.Len(); i++ {
		row := s.Row(i)
		for j, c := range sCols {
			key[j] = row[c]
		}
		set.Insert(key)
	}
	out := NewRelation(r.Name, r.Arity())
	var data []Value
	if r.Arity() > 0 {
		data = make([]Value, 0, len(r.data))
	}
	rkey := make(Tuple, len(rCols))
	for i := 0; i < r.Len(); i++ {
		row := r.Row(i)
		for j, c := range rCols {
			rkey[j] = row[c]
		}
		if set.Contains(rkey) {
			if r.Arity() == 0 {
				out.nullaryLen++
			} else {
				data = append(data, row...)
			}
		}
	}
	out.data = exactValues(data)
	return out
}

// Instance is a database instance: a relation per symbol.
type Instance struct {
	rels map[string]*Relation
}

// NewInstance creates an empty instance.
func NewInstance() *Instance {
	return &Instance{rels: make(map[string]*Relation)}
}

// AddRelation registers a relation, replacing any previous one of the same
// name.
func (in *Instance) AddRelation(r *Relation) {
	in.rels[r.Name] = r
}

// Relation returns the named relation, or nil.
func (in *Instance) Relation(name string) *Relation {
	return in.rels[name]
}

// MustRelation returns the named relation or panics; for internal plumbing
// after validation.
func (in *Instance) MustRelation(name string) *Relation {
	r := in.rels[name]
	if r == nil {
		panic(fmt.Sprintf("database: no relation %q", name))
	}
	return r
}

// Names returns the relation names in sorted order.
func (in *Instance) Names() []string {
	out := make([]string, 0, len(in.rels))
	for n := range in.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Size returns the total number of stored values across relations — the
// ||I|| measure the paper's linear-preprocessing bounds refer to.
func (in *Instance) Size() int {
	n := 0
	for _, r := range in.rels {
		n += r.Len() * r.Arity()
	}
	return n
}

// TupleCount returns the total number of rows across relations.
func (in *Instance) TupleCount() int {
	n := 0
	for _, r := range in.rels {
		n += r.Len()
	}
	return n
}

// Clone deep-copies the instance.
func (in *Instance) Clone() *Instance {
	out := NewInstance()
	for _, r := range in.rels {
		out.AddRelation(r.Clone())
	}
	return out
}

// ShallowClone returns a new instance sharing the relation objects. Query
// engines in this repository never mutate input relations, so overlaying
// extra relations on a shared base is safe and avoids copying the data.
func (in *Instance) ShallowClone() *Instance {
	out := NewInstance()
	for _, r := range in.rels {
		out.AddRelation(r)
	}
	return out
}

// String summarises the instance.
func (in *Instance) String() string {
	parts := make([]string, 0, len(in.rels))
	for _, n := range in.Names() {
		parts = append(parts, in.rels[n].String())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
