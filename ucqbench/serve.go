package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	ucq "repro"
	"repro/internal/server"
)

// endpoint is one in-process server behind a loopback listener.
type endpoint struct {
	srv *server.Server
	hs  *httptest.Server
}

func listen(srv *server.Server) *endpoint {
	return &endpoint{srv: srv, hs: httptest.NewServer(srv.Handler())}
}

// close stops the listener, waiting for in-flight handlers, then releases
// the server's durable store, if any.
func (e *endpoint) close() error {
	e.hs.Close()
	return e.srv.Close()
}

// newClient returns a client keeping one idle connection per caller.
func newClient(callers int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: callers + 1,
		DisableCompression:  true,
	}}
}

// putDataset registers (or, with appendRows, appends to) a dataset and
// returns the version the server acknowledged.
func putDataset(c *http.Client, url string, body []byte) (uint64, error) {
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return 0, fmt.Errorf("PUT %s: status %d: %s", url, resp.StatusCode, msg)
	}
	var info server.DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return 0, fmt.Errorf("PUT %s: %w", url, err)
	}
	return info.Version, nil
}

func datasetBody(rels map[string][][]int64, appendRows bool) ([]byte, error) {
	return json.Marshal(server.DatasetRequest{Relations: rels, Append: appendRows})
}

func queryBody(query string) []byte {
	b, _ := json.Marshal(server.QueryRequest{Query: query})
	return b
}

// queryOnce is one streaming query: request sent → every answer decoded →
// trailer checked. The op fails on a transport error, a non-200 status
// (a 429 shed included), a stream error, or any count mismatch.
func queryOnce(c *http.Client, url string, body []byte, accept string, want int) sample {
	var s sample
	start := time.Now()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		s.failed = true
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.Do(req)
	if err != nil {
		s.failed = true
		return s
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		s.failed = true
		return s
	}
	n := 0
	tr, err := ucq.DecodeAnswerStream(resp.Body, resp.Header.Get("Content-Type"), func(ucq.Tuple) bool {
		if n == 0 {
			s.first = time.Since(start)
		}
		n++
		return true
	})
	s.latency = time.Since(start)
	s.answers = n
	s.failed = err != nil || tr == nil || !tr.Done || tr.Error != "" || tr.Count != n || n != want
	return s
}

// statsDelta is the change in a server's /stats counters over the timed
// window.
type statsDelta struct {
	before, after server.Snapshot
}

// decisions adds the auto decisions the server resolved to the
// cost.decisions_<kind> counts.
func (d statsDelta) decisions(r *run) {
	for kind, n := range d.after.DecisionModes {
		r.layers["cost.decisions_"+kind] += float64(n - d.before.DecisionModes[kind])
	}
}

func (d statsDelta) binds() (hits, misses int64) {
	return d.after.BindCache.Hits - d.before.BindCache.Hits, d.after.BindCache.Misses - d.before.BindCache.Misses
}

func (d statsDelta) bindHitRatio() float64 {
	hits, misses := d.binds()
	return ratio(hits, hits+misses)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
