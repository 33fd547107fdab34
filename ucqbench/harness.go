package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// config is one run's parameters, fixed before any input is generated.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// smoke shrinks every input and op count to a few milliseconds of work;
	// the code paths and checks stay the same.
	smoke bool
	// dir is the run's private directory inside the checkout (input files,
	// data directories, the span dump).
	dir string
}

// sample is one closed-loop operation as the caller saw it.
type sample struct {
	latency time.Duration // op start → last answer (or version marker)
	first   time.Duration // op start → first answer
	answers int           // verified answers the op delivered
	failed  bool
	traced  bool   // the op ran with spans recorded (traced runs alternate)
	kind    string // the auto decision the op's bind resolved, if the benchmark saw it
}

// run accumulates one workload run: the set-up timings, the closed-loop
// samples, the per-layer metrics and the environment record.
type run struct {
	cfg config
	tr  *tracer // nil on untraced runs

	setups  []time.Duration
	heapMB  float64
	window  time.Duration
	samples []sample
	// extraFailures counts failures found outside any single op, such as an
	// end-of-run answer-count mismatch.
	extraFailures int

	layers  map[string]float64
	skipped map[string]string // per-layer metric → why this workload leaves it at 0
	env     envRecord
}

func newRun(cfg config) *run {
	r := &run{cfg: cfg, layers: map[string]float64{}, skipped: map[string]string{}}
	if cfg.trace {
		r.tr = newTracer()
	}
	return r
}

// opCount converts the run length into the fixed number of operations a
// workload performs: nominal ops per second times --seconds. Every run of a
// workload at the same --seconds does the same work, however fast the host
// happens to be.
func (r *run) opCount(perSecond float64) int {
	if r.cfg.smoke {
		return 4
	}
	// At least 21 ops, so that the tail percentile (ten samples beyond it)
	// lies above the median.
	n := int(math.Round(perSecond * float64(r.cfg.seconds)))
	if n < 21 {
		n = 21
	}
	return n
}

// measureSetup times set-ups in batches of perBatch, each batch about a
// second of the system's own work, and records each batch's mean set-up
// time; setup_s is the median over the batches. The set-up whose state the
// run keeps is the last one; tearDown releases the state of every earlier
// one, outside the timed part. Before each set-up a forced GC keeps the
// previous one's garbage out of the measurement.
func (r *run) measureSetup(batches, perBatch int, setup func() (tearDown func(), err error)) error {
	if r.cfg.smoke {
		batches, perBatch = 1, 1
	}
	for b := 0; b < batches; b++ {
		var sum time.Duration
		for i := 0; i < perBatch; i++ {
			runtime.GC()
			start := time.Now()
			tearDown, err := setup()
			sum += time.Since(start)
			if err != nil {
				return fmt.Errorf("set-up %d of batch %d: %w", i+1, b+1, err)
			}
			if b < batches-1 || i < perBatch-1 {
				tearDown()
			}
		}
		r.setups = append(r.setups, sum/time.Duration(perBatch))
	}
	return nil
}

// heapBaseline returns the live heap after a forced GC: called once the
// generator's inputs exist and before any set-up, so that heapRetained
// reports only what the loaded system holds.
func heapBaseline() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func (r *run) heapRetained(base uint64) {
	now := heapBaseline()
	r.heapMB = (float64(now) - float64(base)) / (1 << 20)
}

// closedLoop runs ops operations from clients concurrent callers; each
// caller issues its next operation only after the previous one returned.
// On traced runs every other operation records spans, so the run itself
// measures what tracing costs.
func (r *run) closedLoop(clients, ops int, do func(op int, traced bool) sample) {
	runtime.GC()
	r.env.begin()
	samples := make([]sample, ops)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= ops {
					return
				}
				traced := r.tr != nil && i%2 == 0
				s := do(i, traced)
				s.traced = traced
				samples[i] = s
			}
		}()
	}
	wg.Wait()
	r.window = time.Since(start)
	r.env.end()
	r.samples = samples
}

// countDecisions reports the auto decisions the ops' binds resolved.
func (r *run) countDecisions() {
	for _, s := range r.samples {
		if s.kind != "" {
			r.layers["cost.decisions_"+s.kind]++
		}
	}
}

// attempted and failed are the op counts the result line reports.
func (r *run) attempted() int { return len(r.samples) + r.extraFailures }

func (r *run) failed() int {
	n := r.extraFailures
	for _, s := range r.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// tailRank is the rank (0-based, ascending) of latency_tail_ms among n
// samples: the highest percentile with at least ten samples beyond it.
func tailRank(n int) int {
	if n <= 11 {
		return n - 1
	}
	return n - 11
}

// tailPercentile names the percentile tailRank reads.
func tailPercentile(n int) float64 {
	return 100 * float64(tailRank(n)+1) / float64(n)
}

func quantile(sorted []float64, rank int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// opLatencies returns the sorted op latencies and first-answer times in
// milliseconds, restricted to traced or untraced ops.
func (r *run) opLatencies(traced bool) (lat, first []float64) {
	for _, s := range r.samples {
		if s.traced != traced {
			continue
		}
		lat = append(lat, ms(s.latency))
		first = append(first, ms(s.first))
	}
	sort.Float64s(lat)
	sort.Float64s(first)
	return lat, first
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the six end-to-end metrics from the untraced ops.
func (r *run) endToEnd() map[string]metric {
	lat, first := r.opLatencies(false)
	answers := 0
	for _, s := range r.samples {
		if !s.failed {
			answers += s.answers
		}
	}
	var setups []float64
	for _, d := range r.setups {
		setups = append(setups, d.Seconds())
	}
	return map[string]metric{
		"setup_s":             {median(setups), "s"},
		"latency_p50_ms":      {median(lat), "ms"},
		"latency_tail_ms":     {quantile(lat, tailRank(len(lat))), "ms"},
		"first_answer_p50_ms": {median(first), "ms"},
		"answers_per_s":       {float64(answers) / r.window.Seconds(), "1/s"},
		"heap_retained_mb":    {r.heapMB, "MiB"},
	}
}

// envRecord describes the conditions of the timed window, for diagnosis
// only: a run with high host steal is visible, never dropped.
type envRecord struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	Seed       int64   `json:"seed"`
	StealPct   float64 `json:"host_steal_pct"`
	CPUSeconds float64 `json:"process_cpu_s"`
	WindowS    float64 `json:"window_s"`

	stat0  cpuStat
	rusage float64
}

func (e *envRecord) begin() {
	e.GOMAXPROCS = runtime.GOMAXPROCS(0)
	e.NumCPU = runtime.NumCPU()
	e.GoVersion = runtime.Version()
	e.stat0 = readCPUStat()
	e.rusage = processCPUSeconds()
}

func (e *envRecord) end() {
	st := readCPUStat()
	if total := st.total - e.stat0.total; total > 0 {
		e.StealPct = 100 * float64(st.steal-e.stat0.steal) / float64(total)
	}
	e.CPUSeconds = processCPUSeconds() - e.rusage
}

// cpuStat is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuStat struct{ total, steal uint64 }

// readCPUStat reads /proc/stat; on hosts without it the record stays zero.
func readCPUStat() cpuStat {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuStat{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}
	}
	var st cpuStat
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		// Fields 9 and 10 (guest, guest_nice) are already counted in user
		// and nice.
		if i < 8 {
			st.total += v
		}
		if i == 7 {
			st.steal = v
		}
	}
	return st
}

// processCPUSeconds is this process's user + system CPU time.
func processCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ucqbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
