package yannakakis

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/database"
)

// membershipCase is a prepared plan with every candidate tuple over a
// small domain and the reference answer sets Contains and ContainsHead
// must reproduce.
type membershipCase struct {
	plan       *Plan
	sCands     []database.Tuple
	headCands  []database.Tuple
	sAnswers   map[string]bool
	headAnswer map[string]bool
}

// allTuples lists every tuple of the given width over values 0..domain-1.
func allTuples(width, domain int) []database.Tuple {
	out := []database.Tuple{{}}
	for k := 0; k < width; k++ {
		var next []database.Tuple
		for _, t := range out {
			for v := 0; v < domain; v++ {
				next = append(next, append(t.Clone(), database.V(int64(v))))
			}
		}
		out = next
	}
	return out
}

func newMembershipCase(t *testing.T, query string, seed int64) membershipCase {
	t.Helper()
	const domain = 5
	rng := rand.New(rand.NewSource(seed))
	rows := func() [][]int64 {
		var out [][]int64
		for i := 0; i < 12; i++ {
			out = append(out, []int64{int64(rng.Intn(domain)), int64(rng.Intn(domain))})
		}
		return out
	}
	inst := makeInstance(map[string][][]int64{"R": rows(), "S": rows(), "T": rows()})
	plan, err := Prepare(cq.MustParseCQ(query), inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := membershipCase{
		plan:       plan,
		sCands:     allTuples(len(plan.SVars), domain),
		headCands:  allTuples(len(plan.Q.Head), domain),
		sAnswers:   make(map[string]bool),
		headAnswer: make(map[string]bool),
	}
	for _, row := range plan.Materialize().Rows() {
		c.sAnswers[row.Key()] = true
	}
	for _, row := range plan.MaterializeHead().Rows() {
		c.headAnswer[row.Key()] = true
	}
	if len(c.headAnswer) == 0 {
		t.Fatalf("%s: no answers; pick another seed", query)
	}
	return c
}

// check probes every candidate and reports the first disagreement.
func (c membershipCase) check() (database.Tuple, bool) {
	for _, tu := range c.sCands {
		if c.plan.Contains(tu) != c.sAnswers[tu.Key()] {
			return tu, false
		}
	}
	for _, tu := range c.headCands {
		if c.plan.ContainsHead(tu) != c.headAnswer[tu.Key()] {
			return tu, false
		}
	}
	return nil, true
}

var membershipQueries = []string{
	"Q(x,y,w) <- R(x,y), S(y,w).",
	"Q(w,x,y) <- R(x,y), S(y,w), T(w,v).",
	"Q(x,y,x) <- R(x,y), S(y,w).",
	"Q(x,y) <- R(x,y), S(y,y).",
}

// TestContainsMatchesEnumeration checks both membership tests against the
// plan's own enumeration on every tuple over the domain, including heads
// with a repeated variable.
func TestContainsMatchesEnumeration(t *testing.T) {
	for _, q := range membershipQueries {
		c := newMembershipCase(t, q, 1)
		if tu, ok := c.check(); !ok {
			t.Errorf("%s: membership of %v disagrees with the enumeration", q, tu)
		}
		if c.plan.Contains(database.Tuple{database.V(0)}) || c.plan.ContainsHead(database.Tuple{}) {
			t.Errorf("%s: wrong-width tuple reported as an answer", q)
		}
	}
}

// TestContainsAllocationFree pins Contains and ContainsHead to zero
// allocations on hits and misses: delta maintenance probes once per
// candidate answer.
func TestContainsAllocationFree(t *testing.T) {
	for _, q := range membershipQueries {
		c := newMembershipCase(t, q, 1)
		var hit, miss database.Tuple
		for _, tu := range c.headCands {
			if c.headAnswer[tu.Key()] {
				hit = tu
			} else {
				miss = tu
			}
		}
		sHit := c.plan.Materialize().Row(0)
		for name, probe := range map[string]func(){
			"ContainsHead hit":  func() { c.plan.ContainsHead(hit) },
			"ContainsHead miss": func() { c.plan.ContainsHead(miss) },
			"Contains hit":      func() { c.plan.Contains(sHit) },
			"Contains miss":     func() { c.plan.Contains(c.sCands[0]) },
		} {
			if n := testing.AllocsPerRun(100, probe); n != 0 {
				t.Errorf("%s: %s allocates %v times per call", q, name, n)
			}
		}
	}
}

// TestContainsConcurrentProbes probes one plan from several goroutines at
// once, as the bind cache does with a shared plan; run under -race it
// shows the probes share no scratch state.
func TestContainsConcurrentProbes(t *testing.T) {
	c := newMembershipCase(t, membershipQueries[1], 3)
	var wg sync.WaitGroup
	errs := make(chan database.Tuple, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				if tu, ok := c.check(); !ok {
					errs <- tu
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for tu := range errs {
		t.Errorf("concurrent membership of %v disagrees with the enumeration", tu)
	}
}
