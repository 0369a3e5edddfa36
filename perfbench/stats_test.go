package main

import (
	"math"
	"testing"

	hanmetrics "github.com/hanrepro/han/internal/metrics"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helpers must sort
	}
	return xs
}

func TestTailReportsOnlyWhatTheSampleSupports(t *testing.T) {
	for _, c := range []struct {
		n       int
		wantV   float64
		wantQ   float64
		comment string
	}{
		{2000, 1900, 0.95, "p95 with 100 samples beyond it"},
		{200, 190, 0.95, "p95 with exactly 10 beyond"},
		{199, 189, 189.0 / 199, "p95 would have 9 beyond: fall back one rank"},
		{55, 45, 45.0 / 55, "a parsim4096 run: highest percentile with 10 beyond"},
		{12, 6, 0.5, "no tail with 10 beyond: the median"},
		{4, 2, 0.5, "a bcast4096 run: the median"},
		{1, 1, 1, "a single sample"},
	} {
		v, q := tail(seq(c.n))
		if v != c.wantV || math.Abs(q-c.wantQ) > 1e-12 {
			t.Errorf("n=%d (%s): tail = %v at q=%v, want %v at q=%v", c.n, c.comment, v, q, c.wantV, c.wantQ)
		}
	}
	if v, q := tail(nil); v != 0 || q != 0 {
		t.Errorf("tail(nil) = %v, %v", v, q)
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	xs := seq(10)
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.51, 6}, {0.99, 10}, {1, 10}, {0, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Errorf("quantile sorted its input in place")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
}

func TestHistQuantileUsesBucketMidpoints(t *testing.T) {
	buckets := []float64{math.Inf(-1), 1, 2, 4, math.Inf(1)}
	counts := []uint64{0, 3, 6, 1}
	if got := histQuantile(buckets, counts, 0.5); got != 3 {
		t.Errorf("p50 = %v, want the midpoint 3 of bucket [2,4)", got)
	}
	if got := histQuantile(buckets, counts, 0.1); got != 1.5 {
		t.Errorf("p10 = %v, want 1.5", got)
	}
	if got := histQuantile(buckets, []uint64{0, 0, 0, 2}, 0.5); got != 4 {
		t.Errorf("open-ended bucket = %v, want its finite edge 4", got)
	}
	if got := histQuantile(buckets, make([]uint64, 4), 0.5); got != 0 {
		t.Errorf("empty histogram = %v, want 0", got)
	}
}

func TestFamilySumsAddsLabelledSeries(t *testing.T) {
	reg := hanmetrics.New()
	for proto, v := range map[string]float64{"eager": 3, "rendezvous": 4} {
		reg.Counter(hanmetrics.Opts{Name: "mpi_messages", Help: "h", Labels: map[string]string{"protocol": proto}}).Add(v)
	}
	h := reg.Histogram(hanmetrics.Opts{Name: "han_segments_per_collective", Help: "h"}, hanmetrics.ExpBuckets(1, 2, 4))
	h.Observe(2)
	h.Observe(5)
	got := familySums(reg)
	if got["mpi_messages"] != 7 {
		t.Errorf("mpi_messages = %v, want 7", got["mpi_messages"])
	}
	if got["han_segments_per_collective_sum"] != 7 || got["han_segments_per_collective_count"] != 2 {
		t.Errorf("histogram sum/count = %v/%v, want 7/2", got["han_segments_per_collective_sum"], got["han_segments_per_collective_count"])
	}
}
