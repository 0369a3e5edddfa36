package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	hanmetrics "github.com/hanrepro/han/internal/metrics"
)

// tailQ is the tail percentile reported as p95_us.
const tailQ = 0.95

// minBeyond is the reporting rule for tail percentiles: a percentile is
// reported from a sample only when at least this many samples lie above
// its nearest rank. Below that the number is one or two outliers.
const minBeyond = 10

// rank returns the 1-based nearest-rank index of quantile q in n samples.
func rank(q float64, n int) int {
	k := int(math.Ceil(q * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// quantile returns the nearest-rank quantile q of xs (not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(q, len(s))-1]
}

// tail returns the reported tail percentile of xs: the nearest-rank
// tailQ quantile when at least minBeyond samples lie above it, otherwise
// the highest percentile that has minBeyond samples above it, and the
// median when not even that exists. q is the quantile actually reported.
func tail(xs []float64) (v, q float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	k := rank(tailQ, n)
	if k > n-minBeyond {
		k = n - minBeyond
	}
	if m := rank(0.5, n); k < m {
		k = m
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[k-1], float64(k) / float64(n)
}

// median returns the middle value of xs, or the mean of the two middle
// values for an even count.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// latencyInfo is the run-information record behind a reported latency
// percentile pair: the sample count, the quantile the tail figure is, and
// the largest sample.
func latencyInfo(xs []float64) map[string]any {
	_, q := tail(xs)
	return map[string]any{
		"samples":       len(xs),
		"tail_quantile": q,
		"max":           quantile(xs, 1),
	}
}

// rtSample is a snapshot of the Go runtime's cumulative counters and the
// process CPU time. Deltas between two snapshots give per-layer numbers
// for the span between them.
type rtSample struct {
	wall       time.Time
	cpu        time.Duration // process user+system time
	allocBytes uint64
	allocObjs  uint64
	gcCycles   uint64
	totalBytes uint64 // all memory mapped by the Go runtime
	sched      *metrics.Float64Histogram
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/memory/classes/total:bytes",
	"/sched/latencies:seconds",
}

func sampleRuntime() rtSample {
	ms := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	s := rtSample{
		wall:       time.Now(),
		cpu:        processCPU(),
		allocBytes: ms[0].Value.Uint64(),
		allocObjs:  ms[1].Value.Uint64(),
		gcCycles:   ms[2].Value.Uint64(),
		totalBytes: ms[3].Value.Uint64(),
		sched:      ms[4].Value.Float64Histogram(),
	}
	return s
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memMB returns the process's peak resident set in MB (VmHWM, which the
// kernel tracks page by page), or, where /proc is not available, the
// memory the Go runtime has mapped, which it does not give back either.
func memMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	return float64(sampleRuntime().totalBytes) / 1e6
}

// setRuntimeDelta records the runtime per-layer metrics for the span from
// a to b, during which ops timed operations ran.
func (r *run) setRuntimeDelta(a, b rtSample, ops int, procs int) {
	n := float64(ops)
	r.set("alloc_mb", float64(b.allocBytes-a.allocBytes)/1e6/n)
	r.set("mallocs", float64(b.allocObjs-a.allocObjs)/n)
	r.set("gc.cycles", float64(b.gcCycles-a.gcCycles)/n)
	wall := b.wall.Sub(a.wall).Seconds()
	r.set("host.cpu_util", (b.cpu-a.cpu).Seconds()/(wall*float64(procs)))
	counts := make([]uint64, len(b.sched.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.sched.Counts[i] - a.sched.Counts[i]
		total += counts[i]
	}
	r.set("sched.wakeups", float64(total)/n)
	r.set("sched.wait_p50_us", histQuantile(b.sched.Buckets, counts, 0.5)*1e6)
}

// histQuantile returns quantile q of a runtime/metrics histogram (bucket
// i spans buckets[i]..buckets[i+1]) as the midpoint of the bucket it falls
// in, or the finite edge of an open-ended bucket.
func histQuantile(buckets []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= want {
			lo, hi := buckets[i], buckets[i+1]
			switch {
			case math.IsInf(lo, -1):
				return hi
			case math.IsInf(hi, 1):
				return lo
			}
			return (lo + hi) / 2
		}
	}
	return buckets[len(buckets)-1]
}

// familySums reads a registry through its OpenMetrics export and sums
// every sample by sample name, with a counter's "_total" suffix dropped:
// "mpi_messages" sums both protocols, "han_segments_per_collective_sum"
// is that histogram's sum.
func familySums(reg *hanmetrics.Registry) map[string]float64 {
	var buf bytes.Buffer
	out := map[string]float64{}
	if err := reg.WriteOpenMetrics(&buf, 0); err != nil {
		return out
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest := line, ""
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name, rest = line[:i], line[i:]
		}
		if j := strings.LastIndexByte(rest, '}'); j >= 0 {
			rest = rest[j+1:]
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSuffix(name, "_total")] += v
	}
	return out
}
