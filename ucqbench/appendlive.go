package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	ucq "repro"
	"repro/internal/server"
	"repro/internal/workload"
)

// appendRowsPerRelation is how many rows each append op adds to R2 and to
// R3.
const appendRowsPerRelation = 16

// appendLive: a durable server holds an Example 2 dataset with one binary
// subscription on the union. One writer appends rows to R2 and R3 and waits
// for the subscription's marker for that version. This is the only workload
// on the write path: catalog copy-on-write, the WAL, a bind-cache miss with
// a rebind at the head, and delta evaluation.
func appendLive(r *run) error {
	u := ucq.MustParse(example2)
	width := example2Width(r.cfg, 5000)
	gen := workload.Example2Instance(width, 3, r.cfg.seed)
	want, err := expectedCount(u, gen)
	if err != nil {
		return err
	}
	put, err := datasetBody(rowsOf(gen), false)
	if err != nil {
		return err
	}
	ops := r.opCount(6)
	batches := appendBatches(width, ops, r.cfg.seed)
	bodies := make([][]byte, ops)
	for i, b := range batches {
		if bodies[i], err = datasetBody(b, true); err != nil {
			return err
		}
	}
	subBody := queryBody(example2)
	client := newClient(2)
	defer client.CloseIdleConnections()
	base := heapBaseline()

	var (
		ep  *endpoint
		sub *subscription
	)
	rep := 0
	err = r.measureSetup(3, 5, func() (func(), error) {
		rep++
		dir := filepath.Join(r.cfg.dir, fmt.Sprintf("data-%d", rep))
		srv, err := server.Open(server.Config{DataDir: dir})
		if err != nil {
			return nil, err
		}
		e := listen(srv)
		var s *subscription
		tearDown := func() {
			if s != nil {
				s.close()
			}
			client.CloseIdleConnections()
			_ = e.close()
			_ = os.RemoveAll(dir)
		}
		if _, err := putDataset(client, e.hs.URL+"/datasets/live", put); err != nil {
			tearDown()
			return nil, err
		}
		s, err = subscribe(client, e.hs.URL+"/datasets/live/subscribe", subBody)
		if err != nil {
			tearDown()
			return nil, err
		}
		ev := s.next()
		if ev.err != nil || ev.version != 1 || ev.answers != want {
			tearDown()
			return nil, fmt.Errorf("initial subscription batch: version %d, %d answers (want %d), err %v",
				ev.version, ev.answers, want, ev.err)
		}
		ep, sub = e, s
		return tearDown, nil
	})
	if err != nil {
		return err
	}
	defer ep.close()
	defer sub.close()
	r.heapRetained(base)
	runtime.KeepAlive(gen)

	url := ep.hs.URL + "/datasets/live"
	stats := statsDelta{before: ep.srv.StatsSnapshot()}
	r.closedLoop(1, ops, func(op int, traced bool) sample {
		id := 0
		if traced {
			id = r.tr.start(op, 0, "op")
			defer r.tr.end(id)
		}
		var s sample
		start := time.Now()
		v, err := putDataset(client, url, bodies[op])
		if err != nil {
			s.failed = true
			return s
		}
		ev := sub.next()
		s.latency = ev.at.Sub(start)
		s.first = s.latency
		if ev.answers > 0 {
			s.first = ev.firstAt.Sub(start)
		}
		s.answers = ev.answers
		s.failed = ev.err != nil || ev.resync || ev.version != v
		return s
	})
	stats.after = ep.srv.StatsSnapshot()

	// The subscriber's answers must add up to the head version's full set.
	ds, ok := ep.srv.Catalog().Dataset("live")
	if !ok {
		return fmt.Errorf("dataset live is gone")
	}
	head, err := expectedCount(u, ds.Instance())
	if err != nil {
		return err
	}
	pushed := 0
	for _, s := range r.samples {
		pushed += s.answers
	}
	if want+pushed != head {
		fmt.Fprintf(os.Stderr, "append-live: initial %d + pushed %d answers != %d at the head version\n", want, pushed, head)
		r.extraFailures++
	}
	if r.tr == nil {
		return nil
	}

	stats.decisions(r)
	r.layers["vcache.bind_hit_ratio"] = stats.bindHitRatio()
	r.layers["server.first_answer_p50_ms"] = float64(stats.after.Delays.FirstAnswerP50) / 1e6
	r.layers["server.streams_queued"] = float64(stats.after.Wire.StreamsQueued)
	r.layers["server.streams_shed"] = float64(stats.after.Wire.StreamsShed - stats.before.Wire.StreamsShed)
	if err := appendReplays(r, u, gen, batches); err != nil {
		return err
	}
	r.skip("the plan cache serves Prepare for the subscription", "core.certificate_ms")
	r.skip("ops push only delta answers; no full enumeration or executor run",
		"enumeration.first_answer_ms", "enumeration.ns_per_answer", "enumeration.allocs_per_answer",
		"exec.cores_used", "exec.tasks", "exec.steals", "exec.splits", "catalog.bind_hit_us")
	r.skip("a few hundred answers per op: the write path dominates, not the codec",
		"wire.encode_ns_per_answer", "wire.decode_ns_per_answer", "wire.bytes_per_answer_binary", "wire.bytes_per_answer_ndjson")
	r.skip("no cluster on this workload", "cluster.worker_call_ms", "cluster.coordinator_overhead_ms",
		"cluster.calls_per_query", "cluster.resplits_per_query", "cluster.retries")
	return nil
}

// appendBatches draws each op's rows from the seed: R2 edges between
// existing layer-1 and layer-2 vertices, and R3 edges from layer 2 to fresh
// layer-3 vertices, so every append adds answers to both union members.
func appendBatches(width, ops int, seed int64) []map[string][][]int64 {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	w := int64(width)
	fresh := 4 * w
	out := make([]map[string][][]int64, ops)
	for i := range out {
		r2 := make([][]int64, appendRowsPerRelation)
		r3 := make([][]int64, appendRowsPerRelation)
		for j := range r2 {
			r2[j] = []int64{w + rng.Int63n(w), 2*w + rng.Int63n(w)}
			r3[j] = []int64{2*w + rng.Int63n(w), fresh}
			fresh++
		}
		out[i] = map[string][][]int64{"R2": r2, "R3": r3}
	}
	return out
}

// subscription reads a binary /subscribe stream on its own goroutine and
// hands each version marker, with the answers that preceded it, to next.
type subscription struct {
	cancel context.CancelFunc
	events chan subEvent
	wg     sync.WaitGroup
}

type subEvent struct {
	version uint64
	resync  bool
	answers int
	firstAt time.Time // first answer of the batch
	at      time.Time // the marker
	err     error
}

func subscribe(c *http.Client, url string, body []byte) (*subscription, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Accept", ucq.MediaTypeBinary)
	resp, err := c.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe: status %d", resp.StatusCode)
	}
	s := &subscription{cancel: cancel, events: make(chan subEvent)}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer resp.Body.Close()
		var ev subEvent
		send := func(e subEvent) bool {
			select {
			case s.events <- e:
				return true
			case <-ctx.Done():
				return false
			}
		}
		tr, err := ucq.DecodeSubscriptionStream(resp.Body, resp.Header.Get("Content-Type"),
			func(ucq.Tuple) bool {
				if ev.answers == 0 {
					ev.firstAt = time.Now()
				}
				ev.answers++
				return true
			},
			func(e ucq.SubscriptionEvent) bool {
				ev.at, ev.version, ev.resync = time.Now(), e.Version, e.Resync
				ok := send(ev)
				ev = subEvent{}
				return ok
			})
		if ctx.Err() != nil {
			return
		}
		if err == nil {
			err = fmt.Errorf("subscription ended: trailer %+v", tr)
		}
		send(subEvent{err: err, at: time.Now()})
	}()
	return s, nil
}

// next waits for the next marker; a stalled stream fails the op.
func (s *subscription) next() subEvent {
	select {
	case ev := <-s.events:
		return ev
	case <-time.After(60 * time.Second):
		return subEvent{err: fmt.Errorf("no version marker within 60s"), at: time.Now()}
	}
}

// close hangs up and waits for the reader to exit.
func (s *subscription) close() {
	s.cancel()
	s.wg.Wait()
}

// appendReplays repeats the first appends against a library catalog opened
// with ucq.OpenCatalog, timing each step the server's write path takes:
// the append with its journal write, the rebind at the head, and the delta
// evaluation; then, apart from that path, the candidate count and a direct
// Theorem 12 preprocessing of the head instance.
func appendReplays(r *run, u *ucq.UCQ, gen *ucq.Instance, batches []map[string][][]int64) error {
	replays := 8
	if replays > len(batches) {
		replays = len(batches)
	}
	dir := filepath.Join(r.cfg.dir, "replay")
	cat, st, err := ucq.OpenCatalog(dir, ucq.CatalogConfig{})
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer st.Close()
	inst, err := ucq.InstanceFromRows(rowsOf(gen))
	if err != nil {
		return err
	}
	ds, err := cat.Register("live", inst)
	if err != nil {
		return err
	}
	pq, err := ucq.Prepare(u, nil)
	if err != nil {
		return err
	}
	auto := &ucq.PlanOptions{Auto: true}
	plan, err := pq.BindDatasetExec(ds, auto)
	if err != nil {
		return err
	}
	var appendBytes, walBytes, candPer []float64
	var preps []preprocessReplay
	for k := 0; k < replays; k++ {
		op := replayOp(k)
		rows := 2 * appendRowsPerRelation
		prev := plan.DatasetVersion()
		wal0 := st.Stats().WALBytes
		root := r.tr.start(op, 0, "replay")
		var v uint64
		_, b := memDelta(func() {
			r.tr.timed(op, root, "catalog.append", func() { v, err = ds.AppendRows(batches[k]) })
		})
		if err != nil {
			return err
		}
		appendBytes = append(appendBytes, float64(b)/float64(rows))
		walBytes = append(walBytes, float64(st.Stats().WALBytes-wal0)/float64(rows))
		var next *ucq.Plan
		r.tr.timed(op, root, "catalog.rebind", func() { next, err = pq.BindDatasetExec(ds, auto) })
		if err != nil {
			return err
		}
		var delta []ucq.Tuple
		r.tr.timed(op, root, "delta.eval", func() { delta, err = plan.DeltaAnswers(prev, v) })
		r.tr.end(root)
		if err != nil {
			return err
		}
		if len(delta) != r.samples[k].answers {
			return fmt.Errorf("append %d: replayed delta has %d answers, the subscription pushed %d",
				k+1, len(delta), r.samples[k].answers)
		}

		extra := r.tr.start(op, 0, "replay.extra")
		candidates := 0
		r.tr.timed(op, extra, "delta.candidates", func() {
			err = next.DeltaCandidatesContext(context.Background(), prev, v, func(ucq.Tuple) bool {
				candidates++
				return true
			})
		})
		if err != nil {
			return err
		}
		if len(delta) > 0 {
			candPer = append(candPer, float64(candidates)/float64(len(delta)))
		}
		pp, err := replayPreprocess(r, op, extra, pq, ds.Instance())
		if err != nil {
			return err
		}
		preps = append(preps, pp)
		r.tr.end(extra)
		plan = next
	}
	r.layers["catalog.append_ms"] = r.tr.p50ms("catalog.append")
	r.layers["catalog.append_bytes_per_row"] = median(appendBytes)
	r.layers["storage.wal_bytes_per_row"] = median(walBytes)
	r.layers["catalog.rebind_ms"] = r.tr.p50ms("catalog.rebind")
	r.layers["delta.eval_ms"] = r.tr.p50ms("delta.eval")
	r.layers["delta.candidates_per_answer"] = median(candPer)
	r.setPreprocessMetrics(preps)
	plain, _ := r.opLatencies(false)
	r.layers["server.overhead_ms"] = median(plain) - r.tr.p50ms("replay")
	return nil
}
