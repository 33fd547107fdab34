package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	ucq "repro"
	"repro/internal/cluster"
	"repro/internal/server"
)

// skewJoin is the skewed two-relation join the cluster scatters by root
// range.
const skewJoin = "Q(x,z,y) <- R(x,z), S(z,y)."

// fanoutRows builds R(x,z) ⋈ S(z,y) with one heavy z-key first in R's row
// order, so the heavy key's output sits on one contiguous run of root rows,
// followed by many light keys of one row per side. The seed permutes the
// values, never the shape: the answer count and the skew are the same for
// every seed.
func fanoutRows(heavyR, heavyS, lightZ int, seed int64) (map[string][][]int64, int) {
	rng := rand.New(rand.NewSource(seed))
	xs := rng.Perm(heavyR + lightZ)
	zs := rng.Perm(lightZ + 1)
	var rows, srows [][]int64
	heavy := int64(zs[0])
	for i := 0; i < heavyR; i++ {
		rows = append(rows, []int64{int64(xs[i]), heavy})
	}
	for j := 0; j < heavyS; j++ {
		srows = append(srows, []int64{heavy, int64(1_000_000 + rng.Intn(1_000_000)*heavyS + j)})
	}
	for k := 1; k <= lightZ; k++ {
		z := int64(zs[k])
		rows = append(rows, []int64{int64(xs[heavyR+k-1]), z})
		srows = append(srows, []int64{z, int64(rng.Intn(1 << 40))})
	}
	return map[string][][]int64{"R": rows, "S": srows}, heavyR*heavyS + lightZ
}

// scatterFanout: a coordinator and two in-process workers; two clients
// send no Accept header, so the coordinator re-frames the workers' binary
// streams to NDJSON. The only workload that runs the cluster layer.
func scatterFanout(r *run) error {
	const clients = 2
	heavyR, heavyS, lightZ := 2000, 75, 50000
	if r.cfg.smoke {
		heavyR, heavyS, lightZ = 40, 10, 200
	}
	rels, want := fanoutRows(heavyR, heavyS, lightZ, r.cfg.seed)
	inst, err := ucq.InstanceFromRows(rels)
	if err != nil {
		return err
	}
	u := ucq.MustParse(skewJoin)
	if n, err := expectedCount(u, inst); err != nil || n != want {
		return fmt.Errorf("reference count %d (want %d): %v", n, want, err)
	}
	put, err := datasetBody(rels, false)
	if err != nil {
		return err
	}
	qbody := queryBody(skewJoin)
	client := newClient(clients)
	defer client.CloseIdleConnections()
	base := heapBaseline()

	var nodes []*endpoint // coordinator first, then the workers
	closeAll := func(eps []*endpoint) {
		client.CloseIdleConnections()
		for _, e := range eps {
			_ = e.close()
		}
	}
	err = r.measureSetup(3, 3, func() (func(), error) {
		var eps []*endpoint
		var urls []string
		for i := 0; i < 2; i++ {
			w := listen(server.New(server.Config{}))
			eps = append(eps, w)
			urls = append(urls, w.hs.URL)
		}
		coord, err := server.NewCoordinator(server.Config{Cluster: cluster.Config{Workers: urls}})
		if err != nil {
			closeAll(eps)
			return nil, err
		}
		eps = append([]*endpoint{listen(coord)}, eps...)
		tearDown := func() { closeAll(eps) }
		if _, err := putDataset(client, eps[0].hs.URL+"/datasets/fan", put); err != nil {
			tearDown()
			return nil, err
		}
		if s := queryOnce(client, eps[0].hs.URL+"/datasets/fan/query", qbody, "", want); s.failed {
			tearDown()
			return nil, fmt.Errorf("first query delivered %d answers, want %d", s.answers, want)
		}
		nodes = eps
		return tearDown, nil
	})
	if err != nil {
		return err
	}
	defer closeAll(nodes)
	r.heapRetained(base)
	runtime.KeepAlive(inst)

	coord := nodes[0]
	url := coord.hs.URL + "/datasets/fan/query"
	snap := func() []server.Snapshot {
		var out []server.Snapshot
		for _, n := range nodes {
			out = append(out, n.srv.StatsSnapshot())
		}
		return out
	}
	var before []server.Snapshot
	if r.tr != nil {
		before = snap()
	}
	r.closedLoop(clients, r.opCount(10.0), func(op int, traced bool) sample {
		if !traced {
			return queryOnce(client, url, qbody, "", want)
		}
		id := r.tr.start(op, 0, "op")
		s := queryOnce(client, url, qbody, "", want)
		r.tr.end(id)
		return s
	})
	if r.tr == nil {
		return nil
	}
	after := snap()
	return scatterLayers(r, u, nodes, before, after, want)
}

// scatterLayers reports the cluster counters over the timed window and
// replays one worker's share of a query: a bind-cache hit and the full root
// range through Plan.AnswersRootRange, plus the NDJSON codec the
// coordinator speaks to clients.
func scatterLayers(r *run, u *ucq.UCQ, nodes []*endpoint, before, after []server.Snapshot, want int) error {
	c0, c1 := before[0].Cluster.Scatter, after[0].Cluster.Scatter
	queries := c1.ScatterQueries - c0.ScatterQueries
	if queries == 0 {
		return fmt.Errorf("no query was scattered (fallbacks: %d)", c1.SingleWorkerFallbacks-c0.SingleWorkerFallbacks)
	}
	r.layers["cluster.calls_per_query"] = ratio(c1.ScatterCalls-c0.ScatterCalls, queries)
	r.layers["cluster.resplits_per_query"] = ratio(c1.ScatterResplits-c0.ScatterResplits, queries)
	r.layers["cluster.retries"] = float64(c1.ScatterRetries - c0.ScatterRetries)
	w0, w1 := before[0].Wire, after[0].Wire
	r.layers["wire.bytes_per_answer_ndjson"] = ratio(w1.NDJSONBytes-w0.NDJSONBytes, w1.NDJSONRows-w0.NDJSONRows)
	r.layers["server.first_answer_p50_ms"] = float64(after[0].Delays.FirstAnswerP50) / 1e6
	r.layers["server.streams_queued"] = float64(w1.StreamsQueued)
	r.layers["server.streams_shed"] = float64(w1.StreamsShed - w0.StreamsShed)
	var binBytes, binRows, hits, misses int64
	for i := 1; i < len(nodes); i++ {
		d := statsDelta{before: before[i], after: after[i]}
		d.decisions(r)
		h, m := d.binds()
		hits, misses = hits+h, misses+m
		binBytes += d.after.Wire.BinaryBytes - d.before.Wire.BinaryBytes
		binRows += d.after.Wire.BinaryRows - d.before.Wire.BinaryRows
	}
	r.layers["wire.bytes_per_answer_binary"] = ratio(binBytes, binRows)
	r.layers["vcache.bind_hit_ratio"] = ratio(hits, hits+misses)

	const replays = 6
	pq, err := ucq.Prepare(u, nil)
	if err != nil {
		return err
	}
	ds, ok := nodes[1].srv.Catalog().Dataset("fan")
	if !ok {
		return fmt.Errorf("dataset fan is missing on a worker")
	}
	// Workers bind scatter calls with explicit sequential options; the
	// replay does the same so it is served from the same cache entry.
	seq := &ucq.PlanOptions{}
	plan, err := pq.BindDatasetExec(ds, seq)
	if err != nil {
		return err
	}
	answers, err := collect(plan)
	if err != nil {
		return err
	}
	var enc, dec []time.Duration
	for k := 0; k < replays; k++ {
		op := replayOp(k)
		worker := nodes[1+k%(len(nodes)-1)].srv
		ds, ok := worker.Catalog().Dataset("fan")
		if !ok {
			return fmt.Errorf("dataset fan is missing on a worker")
		}
		root := r.tr.start(op, 0, "replay")
		r.tr.timed(op, root, "catalog.bind_hit", func() { plan, err = pq.BindDatasetExec(ds, seq) })
		if err != nil {
			return err
		}
		if !plan.BindCacheHit() {
			return fmt.Errorf("replayed bind missed the worker's bind cache")
		}
		n := 0
		r.tr.timed(op, root, "cluster.worker_call", func() { n, err = drainRootRange(plan) })
		if err != nil {
			return err
		}
		if n != want {
			return fmt.Errorf("replayed worker call: %d answers, want %d", n, want)
		}
		e, d, err := replayCodec(r.tr, op, root, answers, u.Arity(), ucq.MediaTypeNDJSON)
		r.tr.end(root)
		if err != nil {
			return err
		}
		enc, dec = append(enc, e), append(dec, d)
	}
	r.setCodecMetrics(enc, dec, len(answers))
	r.layers["catalog.bind_hit_us"] = r.tr.p50ms("catalog.bind_hit") * 1000
	call := r.tr.p50ms("cluster.worker_call")
	r.layers["cluster.worker_call_ms"] = call
	plain, _ := r.opLatencies(false)
	r.layers["cluster.coordinator_overhead_ms"] = median(plain) - call/float64(len(nodes)-1)
	r.skip("workers bind from their caches: no certificate search, preprocessing or decision runs",
		"core.certificate_ms", "core.preprocess_ms", "core.preprocess_ns_per_tuple", "core.preprocess_allocs_per_tuple",
		"core.preprocess_bytes_per_tuple", "core.virtual_tuples", "core.provider_runs", "cost.decide_ms")
	r.skip("workers enumerate root ranges sequentially (timed as cluster.worker_call_ms); no executor",
		"enumeration.first_answer_ms", "enumeration.ns_per_answer", "enumeration.allocs_per_answer",
		"exec.cores_used", "exec.tasks", "exec.steals", "exec.splits")
	r.skip("the coordinator's own cost is cluster.coordinator_overhead_ms", "server.overhead_ms")
	r.skip("no appends on this workload", "catalog.append_ms", "catalog.append_bytes_per_row",
		"catalog.rebind_ms", "storage.wal_bytes_per_row", "delta.eval_ms", "delta.candidates_per_answer")
	return nil
}

// drainRootRange enumerates the plan's whole root range the way a worker
// serves a scatter call, and counts the answers.
func drainRootRange(plan *ucq.Plan) (int, error) {
	rootLen, ok := plan.RootLen()
	if !ok {
		return 0, fmt.Errorf("plan is not root-range partitionable")
	}
	ra, err := plan.AnswersRootRange(0, rootLen)
	if err != nil {
		return 0, err
	}
	n := 0
	for {
		if _, ok := ra.Next(); !ok {
			return n, nil
		}
		n++
	}
}
