// Package enumeration provides the enumeration-algorithm toolkit of the
// paper's upper-bound proofs: the answer-stream Iterator abstraction, the
// Cheater's Lemma combinator (Lemma 5), Algorithm 1 for unions of two
// tractable CQs (Theorem 4), generic concatenation, and wall-clock delay
// instrumentation used by the experiment harness.
package enumeration

import (
	"iter"
	"sort"
	"time"

	"repro/internal/database"
)

// Iterator is a stream of answer tuples. Next returns the next tuple and
// true, or nil and false once exhausted. Iterators are single-use and not
// safe for concurrent use.
type Iterator interface {
	Next() (database.Tuple, bool)
}

// Testable is an iterator whose underlying answer set supports a
// constant-time membership test (free-connex CQ plans do, after their
// linear preprocessing).
type Testable interface {
	Iterator
	Contains(database.Tuple) bool
}

// SliceIterator yields a fixed slice of tuples.
type SliceIterator struct {
	tuples []database.Tuple
	pos    int
}

// NewSliceIterator builds an iterator over the given tuples (not copied).
func NewSliceIterator(tuples []database.Tuple) *SliceIterator {
	return &SliceIterator{tuples: tuples}
}

// Next implements Iterator.
func (s *SliceIterator) Next() (database.Tuple, bool) {
	if s.pos >= len(s.tuples) {
		return nil, false
	}
	t := s.tuples[s.pos]
	s.pos++
	return t, true
}

// NextBatch implements BatchIterator.
func (s *SliceIterator) NextBatch(buf []database.Value, max int) ([]database.Value, int) {
	n := 0
	for n < max && s.pos < len(s.tuples) {
		buf = append(buf, s.tuples[s.pos]...)
		s.pos++
		n++
	}
	return buf, n
}

// RelationIterator enumerates a relation's rows as read-only views into
// its storage, so a flat slab of answers needs no per-answer tuple.
type RelationIterator struct {
	rel *database.Relation
	pos int
}

// NewRelationIterator returns an iterator over rel's rows in order.
func NewRelationIterator(rel *database.Relation) *RelationIterator {
	return &RelationIterator{rel: rel}
}

// Next implements Iterator.
func (s *RelationIterator) Next() (database.Tuple, bool) {
	if s.pos >= s.rel.Len() {
		return nil, false
	}
	t := s.rel.Row(s.pos)
	s.pos++
	return t, true
}

// NextBatch implements BatchIterator.
func (s *RelationIterator) NextBatch(buf []database.Value, max int) ([]database.Value, int) {
	n := 0
	for n < max && s.pos < s.rel.Len() {
		buf = append(buf, s.rel.Row(s.pos)...)
		s.pos++
		n++
	}
	return buf, n
}

// Closer is an iterator holding releasable resources (worker goroutines,
// typically). CloseIterator releases any iterator; wrapper iterators
// (Chain, Cheater, AlgorithmOne) forward Close to their members so a
// parallel stream nested inside a combinator is still released when the
// outermost iterator is closed.
type Closer interface {
	Close()
}

// CloseIterator releases the resources behind an iterator, if any: it is
// safe to call on any iterator, and a no-op on those without background
// workers.
func CloseIterator(it Iterator) {
	if c, ok := it.(Closer); ok {
		c.Close()
	}
}

// IterErr reports the error that terminated an iterator early, if any —
// today that is disk trouble on ParallelUnion's spilled dedup path. Check
// it after Next reports exhaustion: a non-nil error means the stream was
// truncated, not completed. Iterators without an error channel report nil.
func IterErr(it Iterator) error {
	if e, ok := it.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

// Func adapts a function to the Iterator interface.
type Func func() (database.Tuple, bool)

// Next implements Iterator.
func (f Func) Next() (database.Tuple, bool) { return f() }

// Chain concatenates iterators.
type Chain struct {
	its []Iterator
	pos int
}

// NewChain builds the concatenation of the given iterators.
func NewChain(its ...Iterator) *Chain { return &Chain{its: its} }

// Next implements Iterator.
func (c *Chain) Next() (database.Tuple, bool) {
	for c.pos < len(c.its) {
		if t, ok := c.its[c.pos].Next(); ok {
			return t, true
		}
		c.pos++
	}
	return nil, false
}

// NextBatch implements BatchIterator by delegating to the member iterators'
// batched fast paths, spilling into the next member as each one drains. A
// member is only abandoned once it appends zero answers — the contract's
// exhaustion signal — so members that legally return short batches keep
// getting polled.
func (c *Chain) NextBatch(buf []database.Value, max int) ([]database.Value, int) {
	total := 0
	for c.pos < len(c.its) && total < max {
		var n int
		buf, n = NextBatch(c.its[c.pos], buf, max-total)
		total += n
		if n == 0 {
			c.pos++
		}
	}
	return buf, total
}

// Close releases every member iterator, including the ones not yet
// reached: abandoning a chain must not leak the workers of a parallel
// member scheduled after the abandonment point.
func (c *Chain) Close() {
	for _, it := range c.its {
		CloseIterator(it)
	}
}

// BatchIterator is an Iterator with a batched fast path, letting consumers
// amortize per-answer overhead (virtual dispatch, channel synchronization
// in the parallel union) over whole batches.
type BatchIterator interface {
	Iterator

	// NextBatch appends the values of up to max answers to buf — flat, one
	// answer's values after another — and returns the extended buffer and
	// the number of answers appended. Appending zero answers means the
	// stream is exhausted.
	NextBatch(buf []database.Value, max int) ([]database.Value, int)
}

// NextBatch pulls up to max answers from it into buf, using the iterator's
// batched fast path when it has one and falling back to Next otherwise. The
// fallback copies tuple values into buf, so the batch owns its data even
// when the iterator reuses an internal tuple buffer.
func NextBatch(it Iterator, buf []database.Value, max int) ([]database.Value, int) {
	if bi, ok := it.(BatchIterator); ok {
		return bi.NextBatch(buf, max)
	}
	n := 0
	for n < max {
		t, ok := it.Next()
		if !ok {
			break
		}
		buf = append(buf, t...)
		n++
	}
	return buf, n
}

// Cheater is the Cheater's Lemma combinator (Lemma 5). It wraps an inner
// iterator that may produce every result up to m times and stall (delay
// linearly) a bounded number of times, and turns it into a duplicate-free
// stream: a lookup table filters repeats and a FIFO queue buffers fresh
// results, pulling up to m inner results per emitted answer. With the
// lemma's preconditions (inner duplication ≤ m, constantly many stalls) the
// emitted stream has linear preprocessing and constant delay.
//
// Deduplication runs over a TupleSet: each inner result costs one hash
// probe, and fresh results are handed out as stable arena views instead of
// per-answer clones.
type Cheater struct {
	inner Iterator
	m     int
	seen  *database.TupleSet
	queue []database.Tuple
	head  int
	// Stats.
	pulled     int
	duplicates int
}

// NewCheater wraps inner with duplication bound m (m ≥ 1). Use the number
// of CQs plus virtual atoms per CQ for Theorem 12 pipelines.
func NewCheater(inner Iterator, m int) *Cheater {
	if m < 1 {
		m = 1
	}
	return &Cheater{inner: inner, m: m, seen: database.NewTupleSet(0)}
}

// Next implements Iterator: duplicate-free, order of first occurrence.
func (c *Cheater) Next() (database.Tuple, bool) {
	// Pull up to m inner results, enqueueing fresh ones.
	for i := 0; i < c.m; i++ {
		t, ok := c.inner.Next()
		if !ok {
			break
		}
		c.pulled++
		stored, fresh := c.seen.InsertGet(t)
		if !fresh {
			c.duplicates++
			continue
		}
		c.queue = append(c.queue, stored)
	}
	if c.head < len(c.queue) {
		t := c.queue[c.head]
		c.pop()
		return t, true
	}
	// The queue drained faster than the inner stream produced fresh
	// results; keep pulling until a fresh one arrives or the inner stream
	// ends. Under the lemma's preconditions this loop runs at most m times.
	for {
		t, ok := c.inner.Next()
		if !ok {
			return nil, false
		}
		c.pulled++
		stored, fresh := c.seen.InsertGet(t)
		if !fresh {
			c.duplicates++
			continue
		}
		return stored, true
	}
}

// pop consumes the queue head, releasing the slot so the queue retains
// O(pending) tuple references rather than every answer ever emitted: the
// consumed slot is nilled immediately, a fully drained queue resets to
// length zero, and a mostly-consumed one compacts its tail to the front.
func (c *Cheater) pop() {
	c.queue[c.head] = nil
	c.head++
	switch {
	case c.head == len(c.queue):
		c.queue = c.queue[:0]
		c.head = 0
	case c.head >= 64 && c.head*2 >= len(c.queue):
		n := copy(c.queue, c.queue[c.head:])
		for i := n; i < len(c.queue); i++ {
			c.queue[i] = nil
		}
		c.queue = c.queue[:n]
		c.head = 0
	}
}

// Close releases the inner iterator's resources.
func (c *Cheater) Close() { CloseIterator(c.inner) }

// Pending returns the number of buffered fresh results not yet emitted.
func (c *Cheater) Pending() int { return len(c.queue) - c.head }

// Duplicates returns the number of inner results suppressed so far.
func (c *Cheater) Duplicates() int { return c.duplicates }

// Pulled returns the number of inner results consumed so far.
func (c *Cheater) Pulled() int { return c.pulled }

// AlgorithmOne is the paper's Algorithm 1: enumerate Q1 ∪ Q2 for two
// tractable CQs using only constant working memory. While Q1 produces
// answers, an answer outside Q2(I) is printed directly; an answer inside
// Q2(I) is "paid for" by printing the next Q2 answer instead (which always
// exists: the branch is taken exactly |Q1(I) ∩ Q2(I)| times). When Q1 is
// done, the remaining Q2 answers are drained. Every answer is printed
// exactly once.
type AlgorithmOne struct {
	q1      Iterator
	q2      Testable
	q1Done  bool
	skipped int
}

// NewAlgorithmOne builds the union iterator. q2 must support the
// constant-time membership test over the same positional answer tuples q1
// produces.
func NewAlgorithmOne(q1 Iterator, q2 Testable) *AlgorithmOne {
	return &AlgorithmOne{q1: q1, q2: q2}
}

// Next implements Iterator.
func (a *AlgorithmOne) Next() (database.Tuple, bool) {
	for !a.q1Done {
		t, ok := a.q1.Next()
		if !ok {
			a.q1Done = true
			break
		}
		if !a.q2.Contains(t) {
			return t, true
		}
		// t will be produced by q2 eventually; print q2's next answer now.
		if u, ok2 := a.q2.Next(); ok2 {
			return u, true
		}
		// Defensive: by the Theorem 4 argument q2 cannot be exhausted here;
		// if it is (mismatched Contains), just skip t — it was already
		// printed as part of q2's stream.
		a.skipped++
	}
	return a.q2.Next()
}

// Close releases both underlying iterators' resources.
func (a *AlgorithmOne) Close() {
	CloseIterator(a.q1)
	CloseIterator(a.q2)
}

// Skipped returns how often the defensive branch fired: Q1 answers that
// Contains claimed were in Q2(I) while Q2's stream was already exhausted.
// Under a correct Testable this stays 0; a non-zero value flags a
// mismatched membership test silently dropping answers.
func (a *AlgorithmOne) Skipped() int { return a.skipped }

// UnionAll enumerates the union of several iterators with global
// deduplication via the Cheater's Lemma combinator. The duplication bound
// is the number of branches: each answer appears at most once per branch.
func UnionAll(its ...Iterator) Iterator {
	if len(its) == 1 {
		return NewCheater(its[0], 1)
	}
	return NewCheater(NewChain(its...), len(its))
}

// Seq adapts an iterator to a Go range-over-func sequence, so callers can
// write `for t := range enumeration.Seq(it)` instead of hand-rolling the
// Next loop. The iterator is released (CloseIterator) when the sequence
// ends — by exhaustion or by an early break — so abandoning a parallel
// stream mid-range does not leak its executor workers. Like the iterator
// it wraps, the sequence is single-use.
func Seq(it Iterator) iter.Seq[database.Tuple] {
	return func(yield func(database.Tuple) bool) {
		defer CloseIterator(it)
		for {
			t, ok := it.Next()
			if !ok {
				return
			}
			if !yield(t) {
				return
			}
		}
	}
}

// Collect drains an iterator into a slice. Ownership follows the iterator:
// Cheater and ParallelUnion return stable arena views owned by their dedup
// set — valid indefinitely but not to be mutated — and plan adapters
// produce fresh tuples.
func Collect(it Iterator) []database.Tuple {
	var out []database.Tuple
	for {
		t, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}

// DelayStats summarises the wall-clock timing of one enumeration run.
type DelayStats struct {
	// Preprocessing is the time from Start to the first answer (or to
	// exhaustion for empty results).
	Preprocessing time.Duration
	// Count is the number of answers.
	Count int
	// MaxDelay and MeanDelay describe inter-answer gaps (excluding
	// preprocessing); P50, P95 and P99 are delay percentiles.
	MaxDelay  time.Duration
	MeanDelay time.Duration
	P50       time.Duration
	P95       time.Duration
	P99       time.Duration
	// Total is the full wall-clock time of the run.
	Total time.Duration
}

// MeasureDelays drains the iterator produced by build, timing the
// preprocessing (construction + first answer) and each inter-answer delay.
func MeasureDelays(build func() Iterator) DelayStats {
	var st DelayStats
	start := time.Now()
	it := build()
	prev := time.Now()
	first := true
	var sum time.Duration
	var delays []time.Duration
	for {
		_, ok := it.Next()
		now := time.Now()
		if !ok {
			if first {
				st.Preprocessing = now.Sub(start)
			}
			st.Total = now.Sub(start)
			break
		}
		if first {
			st.Preprocessing = now.Sub(start)
			first = false
		} else {
			d := now.Sub(prev)
			sum += d
			delays = append(delays, d)
			if d > st.MaxDelay {
				st.MaxDelay = d
			}
		}
		st.Count++
		prev = now
	}
	if len(delays) > 0 {
		st.MeanDelay = sum / time.Duration(len(delays))
		sort.Slice(delays, func(i, j int) bool { return delays[i] < delays[j] })
		st.P50 = delays[len(delays)*50/100]
		st.P95 = delays[len(delays)*95/100]
		st.P99 = delays[len(delays)*99/100]
	}
	return st
}
