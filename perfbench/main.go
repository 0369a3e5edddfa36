// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulator or the hand decision service for a fixed
// number of host seconds, checks every output it produces, and prints the
// result as one JSON line. See PERFBENCH.md for the workloads and metrics.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload bcast4096 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// metricDef names one reported metric and its unit. The lists below must
// match BENCHMARK.json (TestContractMatchesCode checks that they do).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"mem_mb", "MB"},
	{"qps", "1/s"},
	{"p50_us", "us"},
	{"p95_us", "us"},
}

var perLayer = []metricDef{
	{"cpu.samples", "count"},
	{"cpu.sim.queue", "frac"},
	{"cpu.sched", "frac"},
	{"cpu.sim", "frac"},
	{"cpu.flow", "frac"},
	{"cpu.mpi", "frac"},
	{"cpu.coll", "frac"},
	{"cpu.han", "frac"},
	{"cpu.cluster", "frac"},
	{"cpu.arena", "frac"},
	{"cpu.exec", "frac"},
	{"cpu.autotune", "frac"},
	{"cpu.serve", "frac"},
	{"cpu.net", "frac"},
	{"cpu.gc", "frac"},
	{"cpu.runtime", "frac"},
	{"cpu.bench", "frac"},
	{"cpu.other", "frac"},
	{"sched.wakeups", "count/op"},
	{"sched.wait_p50_us", "us"},
	{"parallel.scaling", "x"},
	{"parallel.oracle_ratio", "x"},
	{"flow.flows", "count/op"},
	{"mpi.messages", "count/op"},
	{"mpi.unexpected_frac", "frac"},
	{"mpi.rendezvous_stalls", "count/op"},
	{"han.tasks", "count/op"},
	{"han.segments", "count/op"},
	{"setup.world_s", "s"},
	{"tune.measurements", "count/op"},
	{"tune.sim_cost_s", "sim_s/op"},
	{"exec.jobs", "count/op"},
	{"exec.steals", "count/op"},
	{"exec.flight_hit_frac", "frac"},
	{"host.cpu_util", "frac"},
	{"alloc_mb", "MB/op"},
	{"mallocs", "count/op"},
	{"gc.cycles", "count/op"},
	{"serve.decide_ns", "ns"},
	{"autotune.decide_ns", "ns"},
	{"hand.cache_hit_frac", "frac"},
	{"hand.swaps", "count"},
	{"wire.rtt_us", "us"},
	{"loadgen.late_ms", "ms"},
	{"trace.overhead_frac", "frac"},
}

// workload is one named benchmark input. run measures for r.seconds and
// records metrics, checks and run information on r.
type workload struct {
	name string
	run  func(r *run) error
}

var workloads = []workload{
	{"bcast4096", runBcast4096},
	{"parsim4096", runParsim4096},
	{"tune_mini", runTuneMini},
	{"hand_tcp", runHandTCP},
}

// run is the state of one benchmark invocation.
type run struct {
	seed    int64
	seconds time.Duration
	trace   bool

	attempted, failed int64
	metrics           map[string]float64
	// info is printed on the line before the result: host, build, seed,
	// and the sample count behind every percentile.
	info map[string]any
}

func newRun(seed int64, seconds time.Duration, trace bool) *run {
	return &run{seed: seed, seconds: seconds, trace: trace, metrics: map[string]float64{}, info: map[string]any{}}
}

// check counts one correctness check; a failed one is reported on stderr
// and counted in failed.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// result assembles the final JSON object. In a traced run a per-layer
// metric the workload does not exercise reads 0; in an untraced run every
// end-to-end metric must have been measured.
func (r *run) result() (map[string]any, error) {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	out := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok && !r.trace {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	if r.attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	return map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	}, nil
}

func main() {
	name := flag.String("workload", "", "workload to run: bcast4096, parsim4096, tune_mini or hand_tcp")
	seed := flag.Int64("seed", 1, "input seed (1 is the pinned default)")
	seconds := flag.Float64("seconds", 30, "host seconds to measure for")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		flag.Usage()
		os.Exit(2)
	}

	r := newRun(*seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	r.info["workload"] = w.name
	r.info["seed"] = *seed
	r.info["seconds"] = *seconds
	r.info["trace"] = *trace
	r.info["host"] = hostInfo()
	r.info["build"] = buildInfo()
	start := time.Now()
	if err := w.run(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	r.info["elapsed_s"] = time.Since(start).Seconds()
	res, err := r.result()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	printJSON(map[string]any{"info": r.info})
	printJSON(res)
}

// printJSON writes v as one line with sorted keys (encoding/json sorts map
// keys), so two results diff cleanly.
func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
