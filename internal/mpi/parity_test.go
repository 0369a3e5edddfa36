package mpi_test

import (
	"math"
	"testing"

	"github.com/hanrepro/han/internal/bench"
	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/mpi"
)

// This file runs whole HAN broadcasts through internal/bench on the
// reference P2P oracle, so the pooled protocol is held to it end to end.

// referenceHAN is HAN on the pre-arena hot path: every world it sets up
// runs P2P on the reference oracle and starts heap flows.
func referenceHAN() bench.System {
	sys := bench.HANSystem(nil)
	setup := sys.Setup
	sys.Setup = func(w *mpi.World) bench.Ops {
		mpi.UseReferenceP2P(w)
		w.Mach.Net.SetPooling(false)
		return setup(w)
	}
	return sys
}

func bcastSeconds(spec cluster.Spec, sys bench.System, size int) float64 {
	return bench.IMB(spec, sys, coll.Bcast, []int{size})[0].Seconds
}

// TestPoolingParityEndToEnd runs a full HAN broadcast through the whole
// MPI stack on the pooled records and on the reference oracle and
// requires bit-identical virtual times — the end-to-end form of the
// pooled-vs-reference differential suites of internal/mpi and
// internal/flow.
func TestPoolingParityEndToEnd(t *testing.T) {
	spec := cluster.ShaheenII()
	spec.Nodes, spec.PPN = 8, 8
	pooled := math.Float64bits(bcastSeconds(spec, bench.HANSystem(nil), 4<<20))
	ref := math.Float64bits(bcastSeconds(spec, referenceHAN(), 4<<20))
	if pooled != ref {
		t.Fatalf("pooling changes end-to-end time: pooled %016x vs reference %016x", pooled, ref)
	}
}

// BenchmarkFig10Scale4096RefPool is the root BenchmarkFig10Scale4096
// workload (one 256KB HAN broadcast on the full 4096-rank ShaheenII) on
// the reference oracle and heap flows: the A/B baseline for the arena
// pools. Its sim-us must equal the pooled run's.
func BenchmarkFig10Scale4096RefPool(b *testing.B) {
	spec := cluster.ShaheenII()
	var hanT float64
	for i := 0; i < b.N; i++ {
		hanT = bcastSeconds(spec, referenceHAN(), 256<<10)
	}
	b.ReportMetric(hanT*1e6, "sim-us/HAN")
}
