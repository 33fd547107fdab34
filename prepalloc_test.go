package ucq

import (
	"testing"

	"repro/internal/workload"
)

// TestBindAllocationsPerTuple pins the Theorem 12 preprocessing of the
// paper's Example 2 to under 0.1 allocations per input tuple, at two
// instance sizes. Prepare + Bind allocate per operator, not per tuple: the
// count is a constant (about a thousand of it certificate search), so it
// must barely move between the sizes.
func TestBindAllocationsPerTuple(t *testing.T) {
	if testing.Short() {
		t.Skip("binds ~10⁵-tuple instances")
	}
	u := MustParse(`Q1(x,y,w) <- R1(x,z), R2(z,y), R3(y,w).
Q2(x,y,w) <- R1(x,y), R2(y,w).`)
	var allocs, tuples [2]float64
	for k, width := range []int{3000, 10000} {
		inst := workload.Example2Instance(width, 3, 1)
		tuples[k] = float64(inst.TupleCount())
		allocs[k] = testing.AllocsPerRun(2, func() {
			pq, err := Prepare(u, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := pq.BindExec(inst, nil); err != nil {
				t.Fatal(err)
			}
		})
		perTuple := allocs[k] / tuples[k]
		t.Logf("%.0f tuples: %.0f allocations, %.4f per tuple", tuples[k], allocs[k], perTuple)
		if perTuple >= 0.1 {
			t.Errorf("%.0f tuples: %.3f allocations per input tuple, want < 0.1", tuples[k], perTuple)
		}
	}
	if grown := allocs[1] - allocs[0]; grown > 0.001*(tuples[1]-tuples[0]) {
		t.Errorf("%.0f more allocations for %.0f more tuples: preprocessing allocates per tuple", grown, tuples[1]-tuples[0])
	}
}
