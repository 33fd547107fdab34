package core

// Shard-aware planning for the Theorem 12 pipeline: each certified
// extension is hash-partitioned on a safe join-key attribute chosen from
// its join structure, one CDY plan is prepared per shard, and the shard
// streams feed the parallel union merge as extra branches. A single heavy
// CQ branch thus fans out across workers instead of saturating one — the
// skew regime of unbalanced UCQ instances — while extensions with no safe
// attribute (e.g. self-joins with conflicting columns) transparently fall
// back to their unsharded plan.
//
// When the union has one extension, no bonus answers, and a head partition
// variable, the shard streams are pairwise disjoint and individually
// duplicate-free, so the merge skips deduplication entirely; this is where
// sharded enumeration beats the per-branch merge even on a single core.

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cq"
	"repro/internal/enumeration"
	"repro/internal/shard"
	"repro/internal/yannakakis"
)

// PrepareShards builds the n-way sharded enumeration state: for every
// extension it picks a partition attribute from the query's join structure
// (preferring head variables, whose shard outputs are disjoint, and
// skipping attributes whose input routes too unevenly), partitions the
// extension's resolved instance, and prepares one CDY plan per shard.
// Extensions with no safe attribute keep their unsharded plan. The call is
// idempotent for a given n and must precede IteratorParallelSharded.
func (p *UnionPlan) PrepareShards(n int) error {
	if n < 1 {
		return fmt.Errorf("core: shard count %d < 1", n)
	}
	if p.shardN == n {
		return nil
	}
	plans := make([][]*yannakakis.Plan, len(p.plans))
	vars := make([]cq.Variable, len(p.plans))
	disjoint := len(p.plans) == 1 && p.bonus.Len() == 0
	est := int64(p.bonus.Len())
	for i, e := range p.Cert.Extensions {
		eq := e.Query()
		sh, cand, ok := shard.ChooseAndPartition(eq, p.resolved[e], n)
		if !ok {
			// No safe partition attribute: the branch stays unsharded. A
			// lone unsharded CDY branch is still duplicate-free, so it does
			// not break the union's disjointness.
			est += p.plans[i].CountAnswers()
			continue
		}
		sp := make([]*yannakakis.Plan, len(sh.Shards))
		for j, s := range sh.Shards {
			pl, err := yannakakis.Prepare(eq, s.Inst, nil)
			if err != nil {
				return fmt.Errorf("core: preparing shard %d of %s: %w", j, e.Base.Name, err)
			}
			sp[j] = pl
			est += pl.CountAnswers()
		}
		plans[i] = sp
		vars[i] = cand.Var
		if !cand.Head {
			// An existential partition variable can replay one head tuple
			// from several shards: global dedup stays on.
			disjoint = false
		}
	}
	p.shardN, p.shardPlans, p.shardVars = n, plans, vars
	p.shardDisjoint, p.shardEstimate = disjoint, est
	return nil
}

// ShardedDisjoint reports whether the prepared sharding proved its shard
// streams pairwise disjoint (the merge then skips deduplication).
func (p *UnionPlan) ShardedDisjoint() bool { return p.shardDisjoint }

// IteratorParallelSharded returns a fresh duplicate-free iterator over the
// union's answers in which every sharded extension contributes its shard
// plans as executor tasks, pre-sized from the shards' summed cardinality
// estimates. PrepareShards must have been called. The answer set is
// identical to Iterator's; the order is nondeterministic. The returned
// union must be drained to exhaustion or Closed.
func (p *UnionPlan) IteratorParallelSharded(batchSize int) (*enumeration.ParallelUnion, error) {
	return p.IteratorParallelShardedCtx(context.Background(), ExecOptions{BatchSize: batchSize})
}

// IteratorParallelShardedCtx is the sharded enumeration on the
// work-stealing executor: every shard plan is further cut into root-range
// tasks, and a heavy shard — one whose keys produce most of the output —
// re-splits when stolen instead of serialising on a single worker (the
// output-skew regime input-balance sharding cannot see). Cancelling ctx
// releases the workers within one batch. Shard-level disjointness (head
// partition variable) is preserved by root-range splitting, so the merge
// still skips deduplication when PrepareShards proved the streams
// disjoint.
func (p *UnionPlan) IteratorParallelShardedCtx(ctx context.Context, opts ExecOptions) (*enumeration.ParallelUnion, error) {
	if p.shardN == 0 {
		return nil, fmt.Errorf("core: IteratorParallelSharded before PrepareShards")
	}
	hint := p.shardEstimate
	if hint > enumeration.MaxSizeHint {
		hint = enumeration.MaxSizeHint
	}
	workers := opts.resolveWorkers()
	uo := enumeration.UnionOptions{
		BatchSize:   opts.BatchSize,
		Workers:     workers,
		Disjoint:    p.shardDisjoint,
		SpillBudget: opts.SpillBudget,
		SpillDir:    opts.SpillDir,
	}
	if !p.shardDisjoint {
		uo.SizeHint = int(hint)
	}
	return enumeration.NewParallelUnionTasks(ctx, p.U.Arity(), uo, p.shardedExecTasks(workers)), nil
}

// ExplainShards renders the prepared sharding: per extension, the partition
// attribute and shard count, or the fallback notice.
func (p *UnionPlan) ExplainShards() string {
	if p.shardN == 0 {
		return "no sharding prepared\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "sharded enumeration: %d shards, disjoint=%v, estimated answers=%d\n",
		p.shardN, p.shardDisjoint, p.shardEstimate)
	for i := range p.plans {
		if p.shardPlans[i] == nil {
			fmt.Fprintf(&b, "  member %d: unsharded (no safe partition attribute)\n", i)
			continue
		}
		fmt.Fprintf(&b, "  member %d: partitioned on %s across %d shards\n",
			i, p.shardVars[i], len(p.shardPlans[i]))
	}
	return b.String()
}
