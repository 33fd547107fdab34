package core

import "repro/internal/yannakakis"

// Root-range scatter support.
//
// A union plan's answer stream can be partitioned into disjoint contiguous
// root-row ranges exactly when the whole stream comes from one CDY plan
// with nothing merged in: a single certified extension and no provider
// bonus answers. That is the same condition as ExactCount — a single CDY
// plan's head stream is duplicate-free, and every answer fixes one row of
// the root top relation, so ranges over [0, RootLen) partition the answer
// set with no cross-range duplicates. The distributed coordinator
// (internal/cluster) uses this to scatter one query across workers as
// root-row ranges and concatenate the streams dedup-free; multi-branch
// unions and bonus answers fall outside the condition and take the
// single-worker fallback instead.

// RootLen reports the size of the root-row domain that partitions the
// union's answer set, when one exists: ok is true iff the union has a
// single member plan and no bonus answers. The root-row indices are
// deterministic for a fixed (query, instance) preparation, so two nodes
// that bound the same query against identical replicas agree on them.
func (p *UnionPlan) RootLen() (int, bool) {
	if len(p.plans) == 1 && p.bonus.Len() == 0 {
		return p.plans[0].RootLen(), true
	}
	return 0, false
}

// RootRangeIterator returns a sequential iterator over exactly the union
// answers whose root row index lies in [lo, hi), in ascending root order
// (bounds are clamped). ok is false when the union's answer set is not
// root-range partitionable (see RootLen).
func (p *UnionPlan) RootRangeIterator(lo, hi int) (*yannakakis.Iterator, bool) {
	if _, ok := p.RootLen(); !ok {
		return nil, false
	}
	return p.plans[0].IteratorRange(lo, hi), true
}
