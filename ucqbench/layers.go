package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	ucq "repro"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/database"
	"repro/internal/enumeration"
	"repro/internal/server"
	"repro/internal/wire"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name, unit string
}

// layerMetrics lists every per-layer metric, in the order BENCHMARK.json
// names them. Every traced run prints all of them; a workload whose ops
// never reach a layer reports 0 for it and says why on standard error.
var layerMetrics = []layerMetric{
	{"core.certificate_ms", "ms"},
	{"core.preprocess_ms", "ms"},
	{"core.preprocess_ns_per_tuple", "ns"},
	{"core.preprocess_allocs_per_tuple", "count"},
	{"core.preprocess_bytes_per_tuple", "B"},
	{"core.virtual_tuples", "count"},
	{"core.provider_runs", "count"},
	{"cost.decide_ms", "ms"},
	{"cost.decisions_sequential", "count"},
	{"cost.decisions_parallel", "count"},
	{"cost.decisions_sharded", "count"},
	{"enumeration.first_answer_ms", "ms"},
	{"enumeration.ns_per_answer", "ns"},
	{"enumeration.allocs_per_answer", "count"},
	{"exec.cores_used", "cores"},
	{"exec.tasks", "count"},
	{"exec.steals", "count"},
	{"exec.splits", "count"},
	{"catalog.bind_hit_us", "us"},
	{"vcache.bind_hit_ratio", "ratio"},
	{"catalog.append_ms", "ms"},
	{"catalog.append_bytes_per_row", "B"},
	{"catalog.rebind_ms", "ms"},
	{"storage.wal_bytes_per_row", "B"},
	{"delta.eval_ms", "ms"},
	{"delta.candidates_per_answer", "ratio"},
	{"wire.encode_ns_per_answer", "ns"},
	{"wire.decode_ns_per_answer", "ns"},
	{"wire.bytes_per_answer_binary", "B"},
	{"wire.bytes_per_answer_ndjson", "B"},
	{"server.first_answer_p50_ms", "ms"},
	{"server.streams_queued", "count"},
	{"server.streams_shed", "count"},
	{"server.overhead_ms", "ms"},
	{"cluster.worker_call_ms", "ms"},
	{"cluster.coordinator_overhead_ms", "ms"},
	{"cluster.calls_per_query", "count"},
	{"cluster.resplits_per_query", "count"},
	{"cluster.retries", "count"},
	{"bench.trace_overhead_ms", "ms"},
}

// skip records that this workload leaves the named layer metrics at 0.
func (r *run) skip(reason string, names ...string) {
	for _, n := range names {
		r.skipped[n] = reason
	}
}

// perLayer assembles the traced run's metrics: every registered name and
// the tracing overhead.
func (r *run) perLayer() map[string]metric {
	lat, _ := r.opLatencies(true)
	plain, _ := r.opLatencies(false)
	r.layers["bench.trace_overhead_ms"] = median(lat) - median(plain)
	out := map[string]metric{}
	for _, m := range layerMetrics {
		out[m.name] = metric{r.layers[m.name], m.unit}
	}
	return out
}

// memDelta measures the heap allocations of f.
func memDelta(f func()) (allocs, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

// preprocessReplay is one traced Theorem 12 preprocessing, per input tuple.
type preprocessReplay struct {
	nsPerTuple, allocsPerTuple, bytesPerTuple float64
}

// replayPreprocess runs core.NewUnionPlan on inst inside a span, with its
// allocations, then the cost decision on the result inside another.
func replayPreprocess(r *run, op, parent int, pq *ucq.PreparedQuery, inst *ucq.Instance) (preprocessReplay, error) {
	var (
		up  *core.UnionPlan
		err error
		d   time.Duration
	)
	allocs, bytes := memDelta(func() {
		d = r.tr.timed(op, parent, "core.preprocess", func() {
			up, err = core.NewUnionPlan(pq.Evaluated, pq.Cert, inst)
		})
	})
	if err != nil {
		return preprocessReplay{}, err
	}
	st := up.Stats()
	r.layers["core.virtual_tuples"] = float64(st.VirtualTuples)
	r.layers["core.provider_runs"] = float64(st.ProviderRuns)
	r.tr.timed(op, parent, "cost.decide", func() {
		cpus := runtime.GOMAXPROCS(0)
		in := up.CostInputs(cpus)
		in.CPUs = cpus
		_ = cost.Decide(in)
	})
	tuples := float64(inst.TupleCount())
	return preprocessReplay{
		nsPerTuple:     float64(d.Nanoseconds()) / tuples,
		allocsPerTuple: float64(allocs) / tuples,
		bytesPerTuple:  float64(bytes) / tuples,
	}, nil
}

// setPreprocessMetrics reports the core and cost layers from preprocessing
// replays.
func (r *run) setPreprocessMetrics(ps []preprocessReplay) {
	var ns, allocs, bytes []float64
	for _, p := range ps {
		ns = append(ns, p.nsPerTuple)
		allocs = append(allocs, p.allocsPerTuple)
		bytes = append(bytes, p.bytesPerTuple)
	}
	r.layers["core.preprocess_ms"] = r.tr.p50ms("core.preprocess")
	r.layers["core.preprocess_ns_per_tuple"] = median(ns)
	r.layers["core.preprocess_allocs_per_tuple"] = median(allocs)
	r.layers["core.preprocess_bytes_per_tuple"] = median(bytes)
	r.layers["cost.decide_ms"] = r.tr.p50ms("cost.decide")
}

// drainReplay is one traced enumeration of a bound plan: the first answer
// and the rest of the drain as separate spans, with the drain's
// allocations, CPU time and executor counters.
type drainReplay struct {
	first, drain time.Duration
	answers      int
	allocs       uint64
	cores        float64
	exec         bool // the stream ran on the work-stealing executor
	tasks        int64
	steals       int64
	splits       int64
	err          error
}

func replayDrain(tr *tracer, op, parent int, plan *ucq.Plan) drainReplay {
	var d drainReplay
	var it ucq.Answers
	ok := false
	d.first = tr.timed(op, parent, "enumeration.first_answer", func() {
		it = plan.AnswersContext(context.Background())
		_, ok = it.Next()
	})
	defer ucq.CloseAnswers(it)
	if ok {
		d.answers = 1
	}
	cpu0 := processCPUSeconds()
	d.allocs, _ = memDelta(func() {
		d.drain = tr.timed(op, parent, "enumeration.drain", func() {
			for ok {
				if _, ok = it.Next(); ok {
					d.answers++
				}
			}
		})
	})
	if d.drain > 0 {
		d.cores = (processCPUSeconds() - cpu0) / d.drain.Seconds()
	}
	d.err = ucq.AnswersErr(it)
	if pu, isPar := it.(*enumeration.ParallelUnion); isPar {
		st := pu.Stats()
		d.exec, d.tasks, d.steals, d.splits = true, st.Tasks, st.Steals, st.Splits
	}
	return d
}

// setDrainMetrics reports the enumeration and executor layers from drain
// replays.
func (r *run) setDrainMetrics(ds []drainReplay) error {
	var first, nsPer, allocsPer, cores, tasks, steals, splits []float64
	execRuns := 0
	for _, d := range ds {
		if d.err != nil {
			return fmt.Errorf("replayed drain: %w", d.err)
		}
		first = append(first, ms(d.first))
		if d.answers > 0 {
			nsPer = append(nsPer, float64(d.drain.Nanoseconds())/float64(d.answers))
			allocsPer = append(allocsPer, float64(d.allocs)/float64(d.answers))
		}
		cores = append(cores, d.cores)
		if d.exec {
			execRuns++
			tasks = append(tasks, float64(d.tasks))
			steals = append(steals, float64(d.steals))
			splits = append(splits, float64(d.splits))
		}
	}
	r.layers["enumeration.first_answer_ms"] = median(first)
	r.layers["enumeration.ns_per_answer"] = median(nsPer)
	r.layers["enumeration.allocs_per_answer"] = median(allocsPer)
	r.layers["exec.cores_used"] = median(cores)
	if execRuns == 0 {
		r.skip("the cost model chose a sequential stream: no executor ran", "exec.tasks", "exec.steals", "exec.splits")
		return nil
	}
	r.layers["exec.tasks"] = median(tasks)
	r.layers["exec.steals"] = median(steals)
	r.layers["exec.splits"] = median(splits)
	return nil
}

// collect drains the plan once into retained tuples, outside any span: the
// input of the codec replays.
func collect(plan *ucq.Plan) ([]ucq.Tuple, error) {
	it := plan.AnswersContext(context.Background())
	defer ucq.CloseAnswers(it)
	var out []ucq.Tuple
	for {
		t, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, t.Clone())
	}
	return out, ucq.AnswersErr(it)
}

// encodeBinary frames answers the way the server streams them: it cuts a
// block at the server's default flush cadence.
func encodeBinary(answers []ucq.Tuple, arity int) ([]byte, error) {
	var buf bytes.Buffer
	enc, err := wire.NewEncoder(&buf, arity)
	if err != nil {
		return nil, err
	}
	for i, t := range answers {
		if err := enc.Append(t); err != nil {
			return nil, err
		}
		if (i+1)%server.DefaultFlushEvery == 0 {
			if err := enc.FlushBlock(); err != nil {
				return nil, err
			}
		}
	}
	if err := enc.Trailer(wire.Trailer{Done: true, Count: len(answers)}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// encodeNDJSON renders answers as the NDJSON stream body.
func encodeNDJSON(answers []ucq.Tuple) []byte {
	var out []byte
	for _, t := range answers {
		out = wire.AppendTupleNDJSON(out, t)
		out = append(out, '\n')
	}
	return append(out, fmt.Sprintf(`{"done":true,"count":%d}`+"\n", len(answers))...)
}

// decodeCount decodes a stream body and returns its answer count.
func decodeCount(body []byte, media string) (int, error) {
	n := 0
	tr, err := ucq.DecodeAnswerStream(bytes.NewReader(body), media, func(ucq.Tuple) bool {
		n++
		return true
	})
	if err != nil {
		return 0, err
	}
	if tr == nil || !tr.Done || tr.Count != n {
		return 0, fmt.Errorf("replayed stream: trailer %+v after %d answers", tr, n)
	}
	return n, nil
}

// replayCodec times encoding and decoding the answers in the workload's
// negotiated encoding, once per call.
func replayCodec(tr *tracer, op, parent int, answers []ucq.Tuple, arity int, media string) (enc, dec time.Duration, err error) {
	var body []byte
	enc = tr.timed(op, parent, "wire.encode", func() {
		if media == ucq.MediaTypeBinary {
			body, err = encodeBinary(answers, arity)
		} else {
			body = encodeNDJSON(answers)
		}
	})
	if err != nil {
		return 0, 0, err
	}
	n := 0
	dec = tr.timed(op, parent, "wire.decode", func() { n, err = decodeCount(body, media) })
	if err == nil && n != len(answers) {
		err = fmt.Errorf("replayed decode: %d answers, want %d", n, len(answers))
	}
	return enc, dec, err
}

// setCodecMetrics reports the wire layer's per-answer times.
func (r *run) setCodecMetrics(enc, dec []time.Duration, answers int) {
	per := func(ds []time.Duration) float64 {
		var xs []float64
		for _, d := range ds {
			xs = append(xs, float64(d.Nanoseconds())/float64(answers))
		}
		return median(xs)
	}
	if answers > 0 {
		r.layers["wire.encode_ns_per_answer"] = per(enc)
		r.layers["wire.decode_ns_per_answer"] = per(dec)
	}
}

// rowsOf renders an instance as the wire's relation map.
func rowsOf(inst *database.Instance) map[string][][]int64 {
	out := map[string][][]int64{}
	for _, name := range inst.Names() {
		rel := inst.Relation(name)
		rows := make([][]int64, rel.Len())
		for i := range rows {
			t := rel.Row(i)
			row := make([]int64, len(t))
			for c, v := range t {
				row[c] = v.Payload()
			}
			rows[i] = row
		}
		out[name] = rows
	}
	return out
}

// sortedKeys is used for stable stderr listings.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
