package core

import (
	"repro/internal/cost"
	"repro/internal/shard"
)

// probeCandidateTries bounds how many (head) partition candidates the cost
// probe scores; mirrors maxCandidateTries in internal/shard.
const probeCandidateTries = 4

// CostInputs assembles the cost model's view of this bound union for a
// prospective nShards-way sharding: the instance volume, the exact summed
// branch cardinality from the counting pass, the branch count, and the
// sharding probe — whether a dedup-free (head-variable, single-branch)
// sharding exists and how evenly its best candidate would split the
// estimated output. CPUs is left for the caller: the machine is not the
// union's to know.
func (p *UnionPlan) CostInputs(nShards int) cost.Inputs {
	in := cost.Inputs{
		ConstantDelay: true,
		Rows:          p.inst.TupleCount(),
		Answers:       p.AnswerEstimate(),
		Branches:      len(p.plans),
	}
	// The sharding probe scores only the regime where sharding clearly
	// wins: a single-extension union with no bonus answers, partitioned on
	// a head variable, keeps the merge dedup-free. Candidates are sorted
	// head-first, so the scan stops at the first existential one.
	if nShards > 1 && len(p.plans) == 1 && p.bonus.Len() == 0 {
		e := p.Cert.Extensions[0]
		extInst := p.resolved[e]
		for i, cand := range shard.Candidates(e.Query(), extInst) {
			if i >= probeCandidateTries || !cand.Head {
				break
			}
			share := shard.CandidateShare(extInst, cand.Key, nShards)
			if share < 0 {
				continue
			}
			if !in.ShardableDisjoint || share < in.OutputShare {
				in.OutputShare = share
			}
			in.ShardableDisjoint = true
		}
	}
	return in
}
