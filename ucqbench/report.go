package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steadiness runs the workload n times, each in a fresh process with its
// own seed (seed, seed+1, …), and prints per metric the median, the
// quartiles, the interquartile spread and the full range, both as shares
// of the median. The quartiles are Python's statistics.quantiles(n=4)
// (the "exclusive" method), so the report matches how the bounds in
// BENCHMARK.json are checked.
func steadiness(name string, seed int64, seconds int, traced bool, n int, dir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	failed := 0
	for i := 0; i < n; i++ {
		trace := "0"
		if traced {
			trace = "1"
		}
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed+int64(i), 10),
			"--seconds", strconv.Itoa(seconds), "--trace", trace, "--dir", dir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		var res result
		if err := json.Unmarshal(lastLine(out), &res); err != nil {
			return fmt.Errorf("run %d: parsing result: %w", i+1, err)
		}
		if !res.Correct {
			failed++
		}
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "report: run %d/%d done\n", i+1, n)
	}
	fmt.Printf("workload %s, %d runs, seeds %d..%d, %d incorrect\n", name, n, seed, seed+int64(n)-1, failed)
	fmt.Printf("%-34s %-6s %12s %12s %12s %8s %8s\n", "metric", "unit", "median", "q1", "q3", "iqr%", "range%")
	for _, k := range sortedKeys(values) {
		xs := append([]float64(nil), values[k]...)
		sort.Float64s(xs)
		q1, q2, q3 := quartiles(xs)
		iqr, rng := 0.0, 0.0
		if q2 != 0 {
			iqr = 100 * (q3 - q1) / q2
			rng = 100 * (xs[len(xs)-1] - xs[0]) / q2
		}
		fmt.Printf("%-34s %-6s %12.4f %12.4f %12.4f %8.2f %8.2f\n", k, units[k], q2, q1, q3, iqr, rng)
	}
	return nil
}

// quartiles mirrors Python's statistics.quantiles(data, n=4) with the
// default exclusive method; data must be sorted.
func quartiles(data []float64) (q1, q2, q3 float64) {
	n := len(data)
	if n == 1 {
		return data[0], data[0], data[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		delta := i*m - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}
