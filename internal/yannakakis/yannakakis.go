// Package yannakakis implements the evaluation engine behind the paper's
// upper bounds: linear-time preprocessing and constant-delay enumeration for
// S-connex acyclic conjunctive queries (the CDY algorithm of Theorem 3(1)
// and Lemma 8, realised through a GYO-driven elimination plan).
//
// # How the plan works
//
// Prepare(q, I, S) first checks S-connexity structurally (H(q) and
// H(q) ∪ {S} acyclic). It then runs the GYO reduction of H(q) ∪ {S} with the
// S edge frozen, *on the data*:
//
//   - a variable outside S occurring in exactly one alive atom is projected
//     out of that atom's relation (the pre-projection relation and an index
//     on the remaining columns are logged for replay);
//   - an atom whose variables are contained in another alive atom's
//     variables is absorbed: the absorber is semijoin-reduced by it;
//   - an atom whose variables are contained in S becomes a top node.
//
// The top nodes span exactly S and form an acyclic hypergraph; after a
// classical Yannakakis full reduction over their join tree, a DFS with
// per-node hash indexes enumerates the join of the tops — which equals
// Q(I)|S — with constant delay and no duplicates.
//
// An enumerated S-tuple extends to a full homomorphism by replaying the
// elimination log backwards: each logged projection looks up one matching
// pre-projection row (constant time), exactly the extension step in the
// proof of Lemma 8.
package yannakakis

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/hypergraph"
)

// Plan is a prepared enumeration plan for one S-connex CQ over one instance.
// Preparation costs O(‖I‖) for a fixed query; iteration yields one answer
// per O(1) steps.
type Plan struct {
	Q *cq.CQ
	// SVars is the enumeration variable set in sorted order; iterators
	// produce assignments over these variables (plus, after Extend, all
	// query variables).
	SVars []cq.Variable

	varID   map[cq.Variable]int
	varName []cq.Variable
	// headIDs caches the variable ids of the query head in head order, for
	// allocation-free head projection on the enumeration hot path.
	headIDs []int

	log  []logEntry
	tops []topNode
	// order is the DFS pre-order over tops used by iterators.
	order []int
	// topSet[i] holds top i's rows, enabling the constant-time membership
	// test Algorithm 1 relies on ("tested in constant time after a linear
	// time preprocessing phase").
	topSet []*database.TupleSet
	// topSPos[i][c] is the position in SVars of top i's column c, and
	// topHeadPos[i][c] its first position in the head: membership probes
	// gather each top's key straight from the probed tuple.
	topSPos, topHeadPos [][]int
	// headRepeats pairs each repeated head position with the first
	// position of the same variable; headCoversS reports that every S
	// variable occurs in the head (else ContainsHead cannot decide).
	headRepeats [][2]int
	headCoversS bool

	// count caches CountAnswers (see there).
	count atomic.Int64

	stats Stats
}

// Stats reports preprocessing counters, used by the experiment harness.
type Stats struct {
	// Projections is the number of logged variable eliminations.
	Projections int
	// Absorptions is the number of atom-into-atom absorptions.
	Absorptions int
	// Tops is the number of top nodes.
	Tops int
	// InputValues is ‖I‖ restricted to the query's relations.
	InputValues int
}

// Stats returns the plan's preprocessing counters.
func (p *Plan) Stats() Stats { return p.stats }

type logEntry struct {
	kind byte // 'p' projection, 'a' absorption, 't' top
	node int
	// Projection fields: the variable removed, its column in pre, the
	// pre-projection relation, an index on the remaining columns, and the
	// variable ids keying that index in column order.
	removedVar cq.Variable
	removedCol int
	pre        *database.Relation
	index      *database.Index
	keyVarIDs  []int
}

type topNode struct {
	vars   []cq.Variable
	varIDs []int
	rel    *database.Relation
	// parent in the top join tree (-1 for root), and the index/key vars
	// binding this node to its ancestors during DFS.
	parent    int
	index     *database.Index
	keyVarIDs []int
}

// Prepare builds an enumeration plan for q over inst with enumeration set s.
// A nil s means free(q): the standard free-connex enumeration. Errors are
// returned when a relation is missing or has the wrong arity, when s
// contains variables outside the query, or when q is not s-connex.
func Prepare(q *cq.CQ, inst *database.Instance, s cq.VarSet) (*Plan, error) {
	return PrepareBound(q, inst, s, nil)
}

// PrepareBound is Prepare drawing atom bindings from atoms: plans prepared
// over the same instance with one BoundAtoms filter, project and
// deduplicate each (relation, repeated-variable pattern) pair once. A nil
// atoms binds every atom afresh.
func PrepareBound(q *cq.CQ, inst *database.Instance, s cq.VarSet, atoms *BoundAtoms) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if s == nil {
		s = q.Free()
	}
	vars := q.Vars()
	if !vars.ContainsAll(s) {
		return nil, fmt.Errorf("yannakakis: enumeration set %v contains variables outside the query", s.Minus(vars))
	}
	h := hypergraph.FromCQ(q)
	if !h.IsAcyclic() {
		return nil, fmt.Errorf("yannakakis: query %s is cyclic", q.Name)
	}
	if !h.WithEdge(s).IsAcyclic() {
		return nil, fmt.Errorf("yannakakis: query %s is not %v-connex", q.Name, s)
	}

	p := &Plan{Q: q, varID: make(map[cq.Variable]int)}
	for _, v := range vars.Sorted() {
		p.varID[v] = len(p.varName)
		p.varName = append(p.varName, v)
	}
	p.SVars = s.Sorted()
	p.headIDs = make([]int, len(q.Head))
	for i, v := range q.Head {
		p.headIDs[i] = p.varID[v]
	}

	// Bind atoms to working relations.
	nodes := make([]*elimNode, len(q.Atoms))
	for i, a := range q.Atoms {
		n, err := atoms.bind(a, inst)
		if err != nil {
			return nil, err
		}
		nodes[i] = n
		p.stats.InputValues += n.rel.Len() * n.rel.Arity()
	}

	if err := p.eliminate(nodes, s); err != nil {
		return nil, err
	}
	if err := p.buildTopTree(); err != nil {
		return nil, err
	}
	return p, nil
}

// elimNode is a working atom during elimination: current variables (the
// relation's columns, in order) and current relation.
type elimNode struct {
	vars  []cq.Variable
	rel   *database.Relation
	alive bool
}

func (n *elimNode) colOf(v cq.Variable) int {
	for i, u := range n.vars {
		if u == v {
			return i
		}
	}
	return -1
}

func (n *elimNode) varSet() cq.VarSet {
	return cq.NewVarSet(n.vars...)
}

// BoundAtoms memoises atom bindings across the plans of one instance.
// Binding an atom filters its relation on repeated variables, projects it
// onto the distinct variables and deduplicates it; every plan that binds
// the same relation with the same repeated-variable pattern receives the
// same working relation. Plans never mutate working relations (every
// reduction step builds a new one), so sharing them is safe. A BoundAtoms
// is not safe for concurrent use.
type BoundAtoms struct {
	m map[boundKey]*database.Relation
}

// boundKey identifies one binding: the relation and, per column, the first
// column holding the same variable.
type boundKey struct {
	rel     *database.Relation
	pattern string
}

// NewBoundAtoms returns an empty binding memo.
func NewBoundAtoms() *BoundAtoms {
	return &BoundAtoms{m: make(map[boundKey]*database.Relation)}
}

// AddDistinct records rel as already duplicate-free: an atom over rel with
// pairwise distinct variables binds to rel itself, without a copy.
func (b *BoundAtoms) AddDistinct(rel *database.Relation) {
	b.m[boundKey{rel: rel, pattern: identityPattern(rel.Arity())}] = rel
}

// identityPattern is the pattern of an atom with distinct variables.
func identityPattern(arity int) string {
	firstCol := make([]int, arity)
	for i := range firstCol {
		firstCol[i] = i
	}
	return encodePattern(firstCol)
}

// encodePattern packs first-column numbers into a map key.
func encodePattern(firstCol []int) string {
	p := make([]byte, 0, len(firstCol))
	for _, c := range firstCol {
		p = binary.AppendUvarint(p, uint64(c))
	}
	return string(p)
}

// bind attaches the atom to its relation, handling repeated variables
// (rows must agree on repeated positions) and deduplicating; with a
// non-nil memo the working relation is computed once per pattern.
func (b *BoundAtoms) bind(a cq.Atom, inst *database.Instance) (*elimNode, error) {
	rel := inst.Relation(a.Rel)
	if rel == nil {
		return nil, fmt.Errorf("yannakakis: no relation %q in the instance", a.Rel)
	}
	if rel.Arity() != len(a.Vars) {
		return nil, fmt.Errorf("yannakakis: atom %s has arity %d but relation has arity %d",
			a, len(a.Vars), rel.Arity())
	}
	// Distinct variables in first-occurrence order, with their first
	// column; firstCol[i] is the first column of a.Vars[i]'s variable.
	var vars []cq.Variable
	var cols []int
	firstCol := make([]int, len(a.Vars))
	selfEqual := false
	for i, v := range a.Vars {
		firstCol[i] = colIn(a.Vars[:i], v)
		if firstCol[i] >= 0 {
			selfEqual = true
			continue
		}
		firstCol[i] = i
		vars = append(vars, v)
		cols = append(cols, i)
	}
	key := boundKey{rel: rel, pattern: encodePattern(firstCol)}
	if b != nil {
		if proj, ok := b.m[key]; ok {
			return &elimNode{vars: vars, rel: proj, alive: true}, nil
		}
	}
	work := rel
	if selfEqual {
		work = rel.Filter(func(t database.Tuple) bool {
			for i, first := range firstCol {
				if t[first] != t[i] {
					return false
				}
			}
			return true
		})
	}
	proj := work.Project(a.Rel, cols)
	if b != nil {
		b.m[key] = proj
	}
	return &elimNode{vars: vars, rel: proj, alive: true}, nil
}

// eliminate runs the frozen-S GYO reduction on the data, filling the log
// and the top list.
func (p *Plan) eliminate(nodes []*elimNode, s cq.VarSet) error {
	aliveCount := len(nodes)
	occurrences := func(v cq.Variable) int {
		n := 0
		for _, nd := range nodes {
			if nd.alive && nd.colOf(v) >= 0 {
				n++
			}
		}
		return n
	}

	for aliveCount > 0 {
		// Rule 1 to fixpoint: project solo existential variables. Removing
		// a solo variable never changes another variable's occurrence
		// count, so one pass per node suffices.
		for i, nd := range nodes {
			if !nd.alive {
				continue
			}
			for {
				removed := false
				for _, v := range nd.vars {
					if !s[v] && occurrences(v) <= 1 {
						p.projectOut(i, nd, v)
						removed = true
						break
					}
				}
				if !removed {
					break
				}
			}
		}

		// Rule 2: absorb one atom into another, then re-run rule 1 (the
		// absorber may now hold freshly solo variables).
		absorbed := false
		for i, nd := range nodes {
			if !nd.alive {
				continue
			}
			for j, other := range nodes {
				if i == j || !other.alive {
					continue
				}
				if other.varSet().ContainsAll(nd.varSet()) {
					p.absorb(i, nd, other)
					aliveCount--
					absorbed = true
					break
				}
			}
			if absorbed {
				break
			}
		}
		if absorbed {
			continue
		}

		// Rule 3: atoms contained in S become tops.
		madeTop := false
		for i, nd := range nodes {
			if !nd.alive {
				continue
			}
			if s.ContainsAll(nd.varSet()) {
				p.makeTop(i, nd)
				aliveCount--
				madeTop = true
			}
		}
		if !madeTop {
			return fmt.Errorf("yannakakis: internal error: elimination stalled for %s (S=%v)", p.Q.Name, s)
		}
	}
	if len(p.tops) == 0 {
		return fmt.Errorf("yannakakis: internal error: no top nodes for %s", p.Q.Name)
	}
	return nil
}

func (p *Plan) projectOut(i int, nd *elimNode, v cq.Variable) {
	col := nd.colOf(v)
	pre := nd.rel
	var keepCols []int
	var keepVars []cq.Variable
	var keyVarIDs []int
	for c, u := range nd.vars {
		if c == col {
			continue
		}
		keepCols = append(keepCols, c)
		keepVars = append(keepVars, u)
		keyVarIDs = append(keyVarIDs, p.varID[u])
	}
	entry := logEntry{
		kind:       'p',
		node:       i,
		removedVar: v,
		removedCol: col,
		pre:        pre,
		index:      pre.BuildIndex(keepCols),
		keyVarIDs:  keyVarIDs,
	}
	p.log = append(p.log, entry)
	nd.rel = pre.Project(pre.Name, keepCols)
	nd.vars = keepVars
	p.stats.Projections++
}

func (p *Plan) absorb(i int, nd, into *elimNode) {
	// Semijoin the absorber by the absorbed atom on the absorbed columns.
	intoCols := make([]int, len(nd.vars))
	ndCols := make([]int, len(nd.vars))
	for c, v := range nd.vars {
		intoCols[c] = into.colOf(v)
		ndCols[c] = c
	}
	into.rel = database.Semijoin(into.rel, intoCols, nd.rel, ndCols)
	nd.alive = false
	p.log = append(p.log, logEntry{kind: 'a', node: i})
	p.stats.Absorptions++
}

func (p *Plan) makeTop(i int, nd *elimNode) {
	nd.alive = false
	p.log = append(p.log, logEntry{kind: 't', node: i})
	varIDs := make([]int, len(nd.vars))
	for c, v := range nd.vars {
		varIDs[c] = p.varID[v]
	}
	p.tops = append(p.tops, topNode{vars: nd.vars, varIDs: varIDs, rel: nd.rel, parent: -1})
	p.stats.Tops++
}

// buildTopTree joins the top nodes: join tree, full reduction, DFS order
// and per-node indexes.
func (p *Plan) buildTopTree() error {
	sets := make([]cq.VarSet, len(p.tops))
	for i, t := range p.tops {
		sets[i] = cq.NewVarSet(t.vars...)
	}
	jt, err := hypergraph.BuildJoinTree(hypergraph.FromVarSets(sets...))
	if err != nil {
		return fmt.Errorf("yannakakis: internal error: top hypergraph cyclic: %w", err)
	}
	for i := range p.tops {
		p.tops[i].parent = jt.Parent[i]
	}

	// Classical full reducer: bottom-up then top-down semijoin passes.
	sharedCols := func(child, parent int) (childCols, parentCols []int) {
		for c, v := range p.tops[child].vars {
			if pc := colIn(p.tops[parent].vars, v); pc >= 0 {
				childCols = append(childCols, c)
				parentCols = append(parentCols, pc)
			}
		}
		return childCols, parentCols
	}
	post := jt.PostOrder()
	for _, i := range post {
		if p.tops[i].parent < 0 {
			continue
		}
		par := p.tops[i].parent
		cc, pc := sharedCols(i, par)
		p.tops[par].rel = database.Semijoin(p.tops[par].rel, pc, p.tops[i].rel, cc)
	}
	for k := len(post) - 1; k >= 0; k-- {
		i := post[k]
		if p.tops[i].parent < 0 {
			continue
		}
		par := p.tops[i].parent
		cc, pc := sharedCols(i, par)
		p.tops[i].rel = database.Semijoin(p.tops[i].rel, cc, p.tops[par].rel, pc)
	}

	// DFS pre-order: reverse of post-order is a valid pre-order for our
	// purposes only if children precede parents in post; instead compute a
	// proper pre-order.
	children := jt.Children()
	p.order = p.order[:0]
	var visit func(int)
	visit = func(i int) {
		p.order = append(p.order, i)
		for _, c := range children[i] {
			visit(c)
		}
	}
	visit(jt.Root)

	// Per-node DFS index: on the columns shared with the parent. By the
	// running intersection property these are exactly the variables shared
	// with all previously assigned nodes.
	for _, i := range p.order {
		t := &p.tops[i]
		if t.parent < 0 {
			continue
		}
		cc, _ := sharedCols(i, t.parent)
		t.index = t.rel.BuildIndex(cc)
		t.keyVarIDs = t.keyVarIDs[:0]
		for _, c := range cc {
			t.keyVarIDs = append(t.keyVarIDs, t.varIDs[c])
		}
	}

	// Row sets and key positions for Contains.
	p.topSet = make([]*database.TupleSet, len(p.tops))
	for i := range p.tops {
		p.topSet[i] = p.tops[i].rel.RowSet()
	}
	p.prepareMembership()
	return nil
}

// prepareMembership precomputes the positions Contains and ContainsHead
// read each top's key from.
func (p *Plan) prepareMembership() {
	sPos := make([]int, len(p.varName))
	for i, v := range p.SVars {
		sPos[p.varID[v]] = i
	}
	headPos := make([]int, len(p.varName))
	for i := range headPos {
		headPos[i] = -1
	}
	for i, vid := range p.headIDs {
		if headPos[vid] >= 0 {
			p.headRepeats = append(p.headRepeats, [2]int{i, headPos[vid]})
			continue
		}
		headPos[vid] = i
	}
	p.headCoversS = true
	for _, v := range p.SVars {
		if headPos[p.varID[v]] < 0 {
			p.headCoversS = false
		}
	}
	p.topSPos = make([][]int, len(p.tops))
	p.topHeadPos = make([][]int, len(p.tops))
	for i, t := range p.tops {
		p.topSPos[i] = make([]int, len(t.varIDs))
		p.topHeadPos[i] = make([]int, len(t.varIDs))
		for c, vid := range t.varIDs {
			p.topSPos[i][c] = sPos[vid]
			p.topHeadPos[i][c] = headPos[vid]
		}
	}
}

// Contains reports whether the given tuple over Plan.SVars (sorted variable
// order, as produced by Iterator.STuple) is an answer. It runs in constant
// time for a fixed query: the tuple is an answer iff each top node contains
// its projection, since a full S-assignment determines one row per top. It
// allocates nothing and is safe for concurrent use.
func (p *Plan) Contains(t database.Tuple) bool {
	if len(t) != len(p.SVars) {
		return false
	}
	return p.topsContain(t, p.topSPos)
}

// topsContain reports whether every top holds the key gathered from t at
// its positions in pos. The key lives in a stack buffer: cached plans are
// probed concurrently, so there is no shared scratch.
func (p *Plan) topsContain(t database.Tuple, pos [][]int) bool {
	var buf [8]database.Value
	for i, cols := range pos {
		key := buf[:0]
		for _, c := range cols {
			key = append(key, t[c])
		}
		if !p.topSet[i].Contains(key) {
			return false
		}
	}
	return true
}

func colIn(vars []cq.Variable, v cq.Variable) int {
	for i, u := range vars {
		if u == v {
			return i
		}
	}
	return -1
}

// ContainsHead reports whether the tuple, read positionally against the
// query head, is an answer. Every head variable must be in S (the usual
// S = free(Q) case). Tuples assigning different values to repeated head
// variables are never answers. Like Contains, it allocates nothing and is
// safe for concurrent use.
func (p *Plan) ContainsHead(t database.Tuple) bool {
	if len(t) != len(p.Q.Head) {
		return false
	}
	for _, r := range p.headRepeats {
		if t[r[0]] != t[r[1]] {
			return false
		}
	}
	if !p.headCoversS {
		// An S variable outside the head: membership is not decidable
		// from the head tuple alone; treat as non-member defensively.
		return false
	}
	return p.topsContain(t, p.topHeadPos)
}

// VarID returns the plan-internal id of a variable, or -1.
func (p *Plan) VarID(v cq.Variable) int {
	id, ok := p.varID[v]
	if !ok {
		return -1
	}
	return id
}

// NumVars returns the number of query variables.
func (p *Plan) NumVars() int { return len(p.varName) }
