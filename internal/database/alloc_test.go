package database

import "testing"

// pinRelation builds an n-row binary relation with the same shape at
// every size: column 0 repeats each value four times, and every tenth
// row duplicates its predecessor.
func pinRelation(n int) *Relation {
	r := NewRelation("R", 2)
	for i := 0; i < n; i++ {
		j := int64(i)
		if i%10 == 9 {
			j--
		}
		r.AppendInts(j/4, j)
	}
	return r
}

// TestOperatorAllocationsConstant pins the preprocessing operators to a
// constant number of allocations: the same count at 10³ and 10⁵ rows, so
// none of them allocates per row or grows by doubling.
func TestOperatorAllocationsConstant(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pins build 10⁵-row relations")
	}
	ops := []struct {
		name string
		run  func(r, s *Relation)
	}{
		{"BuildIndex", func(r, _ *Relation) { r.BuildIndex([]int{0}) }},
		{"Project", func(r, _ *Relation) { r.Project("P", []int{0}) }},
		{"Semijoin", func(r, s *Relation) { Semijoin(r, []int{1}, s, []int{0}) }},
		// Dedup works in place, so each run dedups a fresh clone.
		{"Dedup", func(r, _ *Relation) { r.Clone().Dedup() }},
	}
	for _, op := range ops {
		var counts [2]float64
		for k, n := range []int{1_000, 100_000} {
			r, s := pinRelation(n), pinRelation(n/2)
			counts[k] = testing.AllocsPerRun(3, func() { op.run(r, s) })
		}
		if counts[0] != counts[1] {
			t.Errorf("%s: %v allocations at 10³ rows, %v at 10⁵ rows; want a constant count", op.name, counts[0], counts[1])
		}
		t.Logf("%s: %v allocations", op.name, counts[0])
	}
}
