package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, made from the benchmark's own code.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory; dump writes them out once the run is
// over, so recording costs two clock reads and an append under a lock.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id; end closes it. A nil tracer
// records nothing, so untraced code paths call these unconditionally.
func (t *tracer) start(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs f inside a span and returns the span's duration.
func (t *tracer) timed(op, parent int, name string, f func()) time.Duration {
	id := t.start(op, parent, name)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id)
	return d
}

// durations returns the durations of every closed span with the name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// p50ms is the median duration of the named spans in milliseconds, or 0
// when none were recorded.
func (t *tracer) p50ms(name string) float64 {
	var xs []float64
	for _, d := range t.durations(name) {
		xs = append(xs, ms(d))
	}
	return median(xs)
}

// dump writes the spans to path, one JSON object per line.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
