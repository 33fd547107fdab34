package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	ucq "repro"
	"repro/internal/server"
	"repro/internal/workload"
)

// warmStream: two HTTP clients query a registered Example 2 dataset over
// the binary encoding. Every request is a bind-cache hit, so preprocessing
// does nothing and the time goes to enumeration, the executor, the codec
// and the server.
func warmStream(r *run) error {
	const clients = 2
	u := ucq.MustParse(example2)
	gen := workload.Example2Instance(example2Width(r.cfg, 20000), 3, r.cfg.seed)
	want, err := expectedCount(u, gen)
	if err != nil {
		return err
	}
	put, err := datasetBody(rowsOf(gen), false)
	if err != nil {
		return err
	}
	qbody := queryBody(example2)
	client := newClient(clients)
	defer client.CloseIdleConnections()
	base := heapBaseline()

	var ep *endpoint
	err = r.measureSetup(3, 1, func() (func(), error) {
		srv, err := server.Open(server.Config{})
		if err != nil {
			return nil, err
		}
		e := listen(srv)
		tearDown := func() {
			client.CloseIdleConnections()
			_ = e.close()
		}
		if _, err := putDataset(client, e.hs.URL+"/datasets/d", put); err != nil {
			tearDown()
			return nil, err
		}
		if s := queryOnce(client, e.hs.URL+"/datasets/d/query", qbody, ucq.MediaTypeBinary, want); s.failed {
			tearDown()
			return nil, fmt.Errorf("first query delivered %d answers, want %d", s.answers, want)
		}
		ep = e
		return tearDown, nil
	})
	if err != nil {
		return err
	}
	defer ep.close()
	r.heapRetained(base)
	runtime.KeepAlive(gen)

	url := ep.hs.URL + "/datasets/d/query"
	stats := statsDelta{before: ep.srv.StatsSnapshot()}
	var queued atomic.Int64 // the two callers sample concurrently
	r.closedLoop(clients, r.opCount(4.3), func(op int, traced bool) sample {
		if r.tr == nil {
			return queryOnce(client, url, qbody, ucq.MediaTypeBinary, want)
		}
		// Queue depth is a gauge: on traced runs, sample it as every request
		// starts, traced or not, so that the sampling stays out of the
		// tracing overhead.
		q := ep.srv.StatsSnapshot().Wire.StreamsQueued
		for cur := queued.Load(); q > cur && !queued.CompareAndSwap(cur, q); cur = queued.Load() {
		}
		if !traced {
			return queryOnce(client, url, qbody, ucq.MediaTypeBinary, want)
		}
		id := r.tr.start(op, 0, "op")
		s := queryOnce(client, url, qbody, ucq.MediaTypeBinary, want)
		r.tr.end(id)
		return s
	})
	stats.after = ep.srv.StatsSnapshot()
	if r.tr == nil {
		return nil
	}

	stats.decisions(r)
	r.layers["vcache.bind_hit_ratio"] = stats.bindHitRatio()
	w0, w1 := stats.before.Wire, stats.after.Wire
	r.layers["wire.bytes_per_answer_binary"] = ratio(w1.BinaryBytes-w0.BinaryBytes, w1.BinaryRows-w0.BinaryRows)
	r.layers["server.first_answer_p50_ms"] = float64(stats.after.Delays.FirstAnswerP50) / 1e6
	r.layers["server.streams_queued"] = float64(queued.Load())
	r.layers["server.streams_shed"] = float64(w1.StreamsShed - w0.StreamsShed)
	if err := servedReplays(r, u, ep.srv, want); err != nil {
		return err
	}
	r.skip("every request is a plan- and bind-cache hit: no certificate search, preprocessing or decision runs",
		"core.certificate_ms", "core.preprocess_ms", "core.preprocess_ns_per_tuple", "core.preprocess_allocs_per_tuple",
		"core.preprocess_bytes_per_tuple", "core.virtual_tuples", "core.provider_runs", "cost.decide_ms")
	r.skip("binary-only workload", "wire.bytes_per_answer_ndjson")
	r.skip("no appends on this workload", "catalog.append_ms", "catalog.append_bytes_per_row",
		"catalog.rebind_ms", "storage.wal_bytes_per_row", "delta.eval_ms", "delta.candidates_per_answer")
	r.skip("no cluster on this workload", "cluster.worker_call_ms", "cluster.coordinator_overhead_ms",
		"cluster.calls_per_query", "cluster.resplits_per_query", "cluster.retries")
	return nil
}

// servedReplays replays what one request does inside the server, one layer
// at a time: the bind-cache hit, the enumeration, and the encoding and
// decoding of the answers. server.overhead_ms is what remains of the
// request's median time.
func servedReplays(r *run, u *ucq.UCQ, srv *server.Server, want int) error {
	const replays = 6
	ds, ok := srv.Catalog().Dataset("d")
	if !ok {
		return fmt.Errorf("dataset d is gone")
	}
	pq, err := ucq.Prepare(u, nil)
	if err != nil {
		return err
	}
	plan, err := pq.BindDatasetExec(ds, &ucq.PlanOptions{Auto: true})
	if err != nil {
		return err
	}
	answers, err := collect(plan)
	if err != nil {
		return err
	}
	var drains []drainReplay
	var enc, dec []time.Duration
	for k := 0; k < replays; k++ {
		op := replayOp(k)
		root := r.tr.start(op, 0, "replay")
		r.tr.timed(op, root, "catalog.bind_hit", func() {
			plan, err = pq.BindDatasetExec(ds, &ucq.PlanOptions{Auto: true})
		})
		if err != nil {
			return err
		}
		if !plan.BindCacheHit() {
			return fmt.Errorf("replayed bind missed the bind cache the server filled")
		}
		dr := replayDrain(r.tr, op, root, plan)
		if dr.answers != want {
			return fmt.Errorf("replayed drain: %d answers, want %d", dr.answers, want)
		}
		drains = append(drains, dr)
		e, d, err := replayCodec(r.tr, op, root, answers, u.Arity(), ucq.MediaTypeBinary)
		r.tr.end(root)
		if err != nil {
			return err
		}
		enc, dec = append(enc, e), append(dec, d)
	}
	r.layers["catalog.bind_hit_us"] = r.tr.p50ms("catalog.bind_hit") * 1000
	if err := r.setDrainMetrics(drains); err != nil {
		return err
	}
	r.setCodecMetrics(enc, dec, len(answers))
	plain, _ := r.opLatencies(false)
	var inside []float64
	for k := range drains {
		inside = append(inside, ms(drains[k].first+drains[k].drain+enc[k]+dec[k]))
	}
	r.layers["server.overhead_ms"] = median(plain) - (r.tr.p50ms("catalog.bind_hit") + median(inside))
	return nil
}
