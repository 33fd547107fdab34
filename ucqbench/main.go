// Command ucqbench is the repository's end-to-end benchmark. It drives the
// UCQ engine in-process — the library directly, and the HTTP server,
// durable catalog and cluster coordinator behind loopback listeners —
// through four closed-loop workloads, checks every answer count, and prints
// one JSON result line. See README.md in this directory.
//
//	ucqbench --workload cold-bind --seed 1 --seconds 15 --trace 0
//	ucqbench --workload all --seed 1  # every workload in turn, one result line each
//	ucqbench --smoke                  # every workload, tiny, two seeds
//	ucqbench --report 10 --workload warm-stream --seed 1 --seconds 15
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"cold-bind":      coldBind,
	"warm-stream":    warmStream,
	"append-live":    appendLive,
	"scatter-fanout": scatterFanout,
}

// endToEndMetrics lists the end-to-end metric names every untraced run
// prints, with their units.
var endToEndMetrics = []layerMetric{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"first_answer_p50_ms", "ms"},
	{"answers_per_s", "1/s"},
	{"heap_retained_mb", "MiB"},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: cold-bind, warm-stream, append-live, scatter-fanout, or all of them in turn")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 20, "nominal length of the timed window; sets the fixed op count")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		dir     = flag.String("dir", filepath.Join(".bench_build", "runs"), "working directory for inputs, data directories and span dumps")
		smoke   = flag.Bool("smoke", false, "run every workload at a tiny size on two seeds and check the output shape")
		report  = flag.Int("report", 0, "run the workload this many times (seeds seed, seed+1, …) and print a steadiness report")
	)
	flag.Parse()

	switch {
	case *smoke:
		if err := smokeCheck(*dir); err != nil {
			fmt.Fprintln(os.Stderr, "ucqbench: smoke check failed:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "ucqbench: smoke check passed")
	case *report > 0:
		if err := steadiness(*name, *seed, *seconds, *trace == 1, *report, *dir); err != nil {
			fmt.Fprintln(os.Stderr, "ucqbench:", err)
			os.Exit(1)
		}
	case *name == "all":
		// One result line per workload, each naming its workload.
		for _, w := range sortedKeys(workloads) {
			res, err := runWorkload(config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *dir})
			if err != nil {
				fmt.Fprintln(os.Stderr, "ucqbench:", err)
				os.Exit(1)
			}
			printJSON(struct {
				Workload string `json:"workload"`
				*result
			}{w, res})
		}
	default:
		res, err := runWorkload(config{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *dir})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ucqbench:", err)
			os.Exit(1)
		}
		printJSON(res)
	}
}

// runWorkload runs one workload and returns its result line.
func runWorkload(cfg config) (*result, error) {
	drive, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, sortedKeys(workloads))
	}
	if cfg.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	runDir := filepath.Join(cfg.dir, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	cfg.dir = runDir

	r := newRun(cfg)
	r.env.Seed = cfg.seed
	if err := drive(r); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	r.env.WindowS = r.window.Seconds()

	res := &result{Attempted: r.attempted(), Failed: r.failed()}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	lat, _ := r.opLatencies(false)
	summary := map[string]any{
		"workload":        cfg.workload,
		"env":             r.env,
		"ops":             len(r.samples),
		"tail_percentile": tailPercentile(len(lat)),
		"op_ms":           opTimeline(r.samples),
	}
	if r.tr != nil {
		res.Metrics = r.perLayer()
		dump := filepath.Join(filepath.Dir(cfg.dir), fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := r.tr.dump(dump); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		summary["spans"] = dump
		summary["zero_layers"] = r.skipped
	} else {
		res.Metrics = r.endToEnd()
	}
	b, _ := json.Marshal(summary)
	fmt.Fprintln(os.Stderr, string(b))
	return res, nil
}

// smokeCheck runs every workload, untraced and traced, at a tiny size on
// two seeds, and fails unless every run is correct and prints every metric
// with its name and unit.
func smokeCheck(dir string) error {
	for _, name := range sortedKeys(workloads) {
		for _, seed := range []int64{1, 2} {
			for _, traced := range []bool{false, true} {
				res, err := runWorkload(config{workload: name, seed: seed, seconds: 1, trace: traced, smoke: true, dir: dir})
				if err != nil {
					return err
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					return fmt.Errorf("%s seed %d traced=%v: correct=%v attempted=%d failed=%d",
						name, seed, traced, res.Correct, res.Attempted, res.Failed)
				}
				want := endToEndMetrics
				if traced {
					want = layerMetrics
				}
				if len(res.Metrics) != len(want) {
					return fmt.Errorf("%s: %d metrics printed, want %d", name, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						return fmt.Errorf("%s: metric %s printed as %+v, want unit %s", name, m.name, got, m.unit)
					}
				}
				fmt.Fprintf(os.Stderr, "smoke: %s seed %d traced=%v ok (%d ops)\n", name, seed, traced, res.Attempted)
			}
		}
	}
	return nil
}

// opTimeline lists every op's latency in start order, rounded to 0.1 ms, so
// a disturbed stretch of a run is visible in the record.
func opTimeline(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.latency.Round(100*time.Microsecond)) / float64(time.Millisecond)
	}
	return out
}
