package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	ucq "repro"
	"repro/internal/baseline"
	"repro/internal/workload"
)

// example2 is the paper's Example 2: Q2 is tractable, Q1 is not on its own,
// and the union is tractable because Q2 provides {x,z,y} to Q1.
const example2 = `Q1(x,y,w) <- R1(x,z), R2(z,y), R3(y,w).
Q2(x,y,w) <- R1(x,y), R2(y,w).`

// example2Width is the per-layer vertex count of a workload's Example 2
// instance (three out-edges per vertex, three relations: 9·width tuples).
func example2Width(cfg config, width int) int {
	if cfg.smoke {
		return 120
	}
	return width
}

// expectedCount is a workload's reference answer count: a sequential plan's
// count, cross-checked against the naive join-and-dedup evaluator.
func expectedCount(u *ucq.UCQ, inst *ucq.Instance) (int, error) {
	plan, err := ucq.NewPlan(u, inst, nil)
	if err != nil {
		return 0, err
	}
	n := plan.Count()
	rel, err := baseline.EvalUCQ(u, inst)
	if err != nil {
		return 0, err
	}
	if rel.Len() != n {
		return 0, fmt.Errorf("reference counts disagree: sequential plan %d, naive evaluator %d", n, rel.Len())
	}
	return n, nil
}

// coldBind: one library caller; each op prepares the Example 2 union, binds
// it to the loaded instance with auto execution and drains every answer.
// Three quarters of an op is Theorem 12 preprocessing; no HTTP or wire code
// runs.
func coldBind(r *run) error {
	u := ucq.MustParse(example2)
	gen := workload.Example2Instance(example2Width(r.cfg, 10000), 3, r.cfg.seed)
	want, err := expectedCount(u, gen)
	if err != nil {
		return err
	}
	body, err := json.Marshal(rowsOf(gen))
	if err != nil {
		return err
	}
	path := filepath.Join(r.cfg.dir, "cold-bind.json")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		return err
	}
	body = nil
	base := heapBaseline()

	var inst *ucq.Instance
	err = r.measureSetup(3, 3, func() (func(), error) {
		inst = nil
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		loaded, err := ucq.ReadInstanceJSON(f)
		if err != nil {
			return nil, err
		}
		s := bindOnce(nil, 0, u, loaded, want)
		if s.failed {
			return nil, fmt.Errorf("first cold bind delivered %d answers, want %d", s.answers, want)
		}
		inst = loaded
		return func() {}, nil
	})
	if err != nil {
		return err
	}
	r.heapRetained(base)

	r.closedLoop(1, r.opCount(3.2), func(op int, traced bool) sample {
		tr := r.tr
		if !traced {
			tr = nil
		}
		return bindOnce(tr, op, u, inst, want)
	})
	runtime.KeepAlive(gen)

	if r.tr == nil {
		return nil
	}
	return coldBindLayers(r, u, inst, want)
}

// bindOnce is one cold-bind op: Prepare → BindExec (auto) → full drain.
func bindOnce(tr *tracer, op int, u *ucq.UCQ, inst *ucq.Instance, want int) sample {
	root := tr.start(op, 0, "op")
	defer tr.end(root)
	start := time.Now()
	var s sample
	id := tr.start(op, root, "ucq.prepare")
	pq, err := ucq.Prepare(u, nil)
	tr.end(id)
	if err != nil {
		s.failed = true
		return s
	}
	id = tr.start(op, root, "ucq.bind")
	plan, err := pq.BindExec(inst, &ucq.PlanOptions{Auto: true})
	tr.end(id)
	if err != nil {
		s.failed = true
		return s
	}
	id = tr.start(op, root, "ucq.drain")
	it := plan.AnswersContext(context.Background())
	n := 0
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		if n == 0 {
			s.first = time.Since(start)
		}
		n++
	}
	ucq.CloseAnswers(it)
	tr.end(id)
	s.latency = time.Since(start)
	s.answers = n
	s.failed = n != want || ucq.AnswersErr(it) != nil
	if d := plan.Decision(); d != nil {
		s.kind = d.Kind
	}
	return s
}

// coldBindLayers replays the op's layer calls one at a time, each inside a
// span: certificate search, Theorem 12 preprocessing with its allocations,
// the cost decision, and enumeration of a bound plan.
func coldBindLayers(r *run, u *ucq.UCQ, inst *ucq.Instance, want int) error {
	const replays = 8
	pq, err := ucq.Prepare(u, nil)
	if err != nil {
		return err
	}
	plan, err := pq.BindExec(inst, &ucq.PlanOptions{Auto: true})
	if err != nil {
		return err
	}
	var drains []drainReplay
	var preps []preprocessReplay
	for k := 0; k < replays; k++ {
		op := replayOp(k)
		root := r.tr.start(op, 0, "replay")
		var p *ucq.PreparedQuery
		r.tr.timed(op, root, "core.certificate", func() { p, err = ucq.Prepare(u, nil) })
		if err != nil {
			return err
		}
		pp, err := replayPreprocess(r, op, root, p, inst)
		if err != nil {
			return err
		}
		preps = append(preps, pp)
		dr := replayDrain(r.tr, op, root, plan)
		r.tr.end(root)
		if dr.answers != want {
			return fmt.Errorf("replayed drain: %d answers, want %d", dr.answers, want)
		}
		drains = append(drains, dr)
	}
	r.layers["core.certificate_ms"] = r.tr.p50ms("core.certificate")
	r.setPreprocessMetrics(preps)
	r.countDecisions()
	if err := r.setDrainMetrics(drains); err != nil {
		return err
	}
	r.skip("library workload: no catalog dataset, bind cache, HTTP or wire code on the op path",
		"catalog.bind_hit_us", "vcache.bind_hit_ratio", "wire.encode_ns_per_answer", "wire.decode_ns_per_answer",
		"wire.bytes_per_answer_binary", "wire.bytes_per_answer_ndjson", "server.first_answer_p50_ms",
		"server.streams_queued", "server.streams_shed", "server.overhead_ms")
	r.skip("no appends on this workload", "catalog.append_ms", "catalog.append_bytes_per_row",
		"catalog.rebind_ms", "storage.wal_bytes_per_row", "delta.eval_ms", "delta.candidates_per_answer")
	r.skip("no cluster on this workload", "cluster.worker_call_ms", "cluster.coordinator_overhead_ms",
		"cluster.calls_per_query", "cluster.resplits_per_query", "cluster.retries")
	return nil
}

// replayOp numbers replay ops apart from the closed loop's ops in the span
// dump.
func replayOp(k int) int { return 1_000_000 + k }
