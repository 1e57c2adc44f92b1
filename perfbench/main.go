// Command perfbench is the repository's benchmark of record. It runs
// one workload at a given seed for a given time and prints every metric
// by name, with its unit and sample count, then one JSON result line:
//
//	perfbench -workload table1 -seed 1 -seconds 15 -trace 0
//
// Workloads: table1 (the paper's §8 Table 1 on calibrated media and
// the real clock), fs-lan (two 9P clients importing bootes over IL on
// ideal media) and gateway-storm (Datakit tenants importing through
// one multi-tenant exportfs on the virtual clock). With -trace 0 the
// result carries the end-to-end metrics; with -trace 1 the per-layer
// ones, from a run that records spans at the benchmark's call sites.
// README.md beside this file maps each metric to its layer and
// workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/vclock"
)

// workloads in the order probes run.
var workloads = []string{"fs-lan", "table1", "gateway-storm"}

// probeBudget is how long a traced run spends on each other workload
// to measure the layers its own workload does not exercise.
const probeBudget = time.Second

func runWorkload(name string, seed int64, budget time.Duration, tr *tracer, traced bool) (*report, error) {
	switch name {
	case "table1":
		return runTable1(seed, budget, tr, traced)
	case "fs-lan":
		return runFS(seed, budget, tr, traced)
	case "gateway-storm":
		return runStorm(seed, budget, tr, traced)
	}
	return nil, fmt.Errorf("unknown workload %q (want table1, fs-lan or gateway-storm)", name)
}

// benchDef is the part of BENCHMARK.json the program checks itself
// against: which metric names each result must carry.
type benchDef struct {
	EndToEnd []struct{ Name string } `json:"end_to_end"`
	PerLayer []struct{ Name string } `json:"per_layer"`
}

func main() {
	workload := flag.String("workload", "", "table1, fs-lan or gateway-storm")
	seed := flag.Int64("seed", 1, "seed for payloads, offsets and schedules")
	seconds := flag.Float64("seconds", 15, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	def := flag.String("bench", "BENCHMARK.json", "benchmark definition")
	out := flag.String("out", "", "directory for the traced run's spans")
	commit := flag.String("commit", "unknown", "commit measured (recorded)")
	tree := flag.String("tree", "unknown", "source tree digest (recorded)")
	flag.Parse()

	names, err := loadNames(*def, *trace == 1)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("env workload=%s seed=%d seconds=%g trace=%d commit=%s tree=%s go=%s gomaxprocs=%d nproc=%d\n",
		*workload, *seed, *seconds, *trace, *commit, *tree,
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	budget := time.Duration(*seconds * float64(time.Second))

	var res report
	var metrics []metric
	if *trace == 0 {
		r, err := runWorkload(*workload, *seed, budget, nil, false)
		if err != nil {
			fatal(err)
		}
		res.tally(r)
		printMetrics(r.E2E)
		printMetrics(r.Layer)
		metrics = r.E2E
	} else {
		metrics = traced(*workload, *seed, budget, *out, &res)
	}
	for _, p := range res.Problems {
		fmt.Println("fail", p)
	}
	emit(names, metrics, &res)
}

// traced runs the workload untraced and traced for half the budget
// each, then probes the other workloads and the clock, and returns the
// per-layer metrics: each from the workload that exercises the layer.
func traced(workload string, seed int64, budget time.Duration, out string, res *report) []metric {
	plain, err := runWorkload(workload, seed, budget/2, nil, false)
	if err != nil {
		fatal(err)
	}
	res.tally(plain)
	tr := newTracer()
	r, err := runWorkload(workload, seed, budget/2, tr, true)
	if err != nil {
		fatal(err)
	}
	res.tally(r)
	saveTrace(tr, out, workload, seed)
	fmt.Println("# traced", workload)
	printMetrics(r.E2E)
	printMetrics(r.Layer)

	have := make(map[string]bool)
	var metrics []metric
	take := func(ms []metric) {
		for _, m := range ms {
			if !have[m.Name] {
				have[m.Name] = true
				metrics = append(metrics, m)
			}
		}
	}
	take(r.Layer)
	extra := append(overshoot(), metric{"trace.overhead_share", "ratio",
		ratio(float64(r.Round-plain.Round), float64(plain.Round)), 0})
	printMetrics(extra)
	take(extra)
	for _, w := range workloads {
		if w == workload {
			continue
		}
		ptr := newTracer()
		p, err := runWorkload(w, seed, probeBudget, ptr, true)
		if err != nil {
			fatal(err)
		}
		res.tally(p)
		saveTrace(ptr, out, w+"-probe", seed)
		fmt.Println("# probe", w)
		printMetrics(p.Layer)
		take(p.Layer)
	}
	return metrics
}

// overshoot times vclock.Real.SleepUntil at the calibrated Cyclone
// latency, the ether latency and the ether frame time: how late the
// real clock wakes a paced sender.
func overshoot() []metric {
	var out []metric
	for _, req := range []time.Duration{50 * time.Microsecond, 200 * time.Microsecond, 1200 * time.Microsecond} {
		var s samples
		for i := 0; i < 200; i++ {
			t := hostClock.Now().Add(req)
			vclock.Real.SleepUntil(t)
			s = append(s, hostClock.Since(t))
		}
		out = append(out, metric{fmt.Sprintf("vclock.overshoot_%dus_p50_us", req.Microseconds()),
			"us", us(s.pct(0.5)), len(s)})
	}
	return out
}

func saveTrace(tr *tracer, dir, name string, seed int64) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: trace:", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := tr.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: trace:", err)
		return
	}
	fmt.Println("# spans", path)
}

func printMetrics(ms []metric) {
	sorted := append([]metric(nil), ms...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, m := range sorted {
		fmt.Printf("metric %-32s %14.6f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
}

// loadNames reads the metric names a result must carry.
func loadNames(path string, perLayer bool) ([]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchDef
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	list := d.EndToEnd
	if perLayer {
		list = d.PerLayer
	}
	var names []string
	for _, m := range list {
		names = append(names, m.Name)
	}
	return names, nil
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// emit prints the result line with exactly the named metrics and exits
// non-zero if any correctness check failed or a metric is missing.
func emit(names []string, ms []metric, res *report) {
	byName := make(map[string]metric)
	for _, m := range ms {
		byName[m.Name] = m
	}
	out := result{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]value)}
	for _, n := range names {
		m, ok := byName[n]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintln(os.Stderr, "perfbench: metric not measured:", n)
			out.Correct = false
			continue
		}
		out.Metrics[n] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if !out.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}
