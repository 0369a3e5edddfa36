package main

import (
	"encoding/json"
	"os"
	"testing"

	"github.com/hanrepro/han/internal/autotune"
	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/han"
)

func TestSimBitsCheckPinsTheDefaultSeed(t *testing.T) {
	c := newSimBitsCheck(pinnedSeed, bcastPinnedBits)
	if c.ok(bcastPinnedBits + 1) {
		t.Error("pinned seed accepted bits other than the pinned ones")
	}
	if !c.ok(bcastPinnedBits) {
		t.Error("pinned seed rejected the pinned bits")
	}
	c = newSimBitsCheck(7, bcastPinnedBits)
	if !c.ok(42) {
		t.Error("other seed rejected its first call's bits")
	}
	if c.ok(bcastPinnedBits) || !c.ok(42) {
		t.Error("other seed did not hold later calls to the first call's bits")
	}
}

func TestTableDigestIsByteExact(t *testing.T) {
	a := syntheticTable(cluster.Mini(4, 4), handKinds, false)
	b := syntheticTable(cluster.Mini(4, 4), handKinds, false)
	da, err := tableDigest([]*autotune.Table{a, b})
	if err != nil {
		t.Fatal(err)
	}
	a.Decide(coll.Bcast, 1<<20) // builds the unexported index: not output
	db, _ := tableDigest([]*autotune.Table{a, b})
	if da != db {
		t.Error("digest changed with no change to the table's output")
	}
	b.Entries[3].EstCost += 1e-12
	dc, _ := tableDigest([]*autotune.Table{a, b})
	if dc == da {
		t.Error("digest missed a tiny cost change")
	}
	b.Entries[3].EstCost -= 1e-12
	b.TuningCost = 1
	if dd, _ := tableDigest([]*autotune.Table{a, b}); dd == da {
		t.Error("digest missed a tuning-cost change")
	}
}

func TestHandQueriesAllowOnlyPublishedDecisions(t *testing.T) {
	points, mix, err := handQueries(3)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(cluster.PresetNames()) * len(handKinds) * 64; len(points) != want {
		t.Fatalf("%d distinct queries, want %d", len(points), want)
	}
	_, mix2, _ := handQueries(3)
	_, mix4, _ := handQueries(4)
	same, differ := true, false
	for i := range mix {
		same = same && mix[i] == mix2[i]
		differ = differ || mix[i] != mix4[i]
	}
	if !same || !differ {
		t.Errorf("query mix: same seed equal %v, other seed differs %v", same, differ)
	}
	for _, p := range points {
		flip := p.cluster == flipCluster && p.kind == flipKind
		if (len(p.allowed) == 2) != flip {
			t.Fatalf("%s/%s m=%d allows %d decisions", p.cluster, p.kind, p.m, len(p.allowed))
		}
		if flip && p.allowed[0] == p.allowed[1] {
			t.Fatalf("flip key m=%d: the two tables decide alike", p.m)
		}
		if !p.ok(p.allowed[len(p.allowed)-1]) {
			t.Fatal("an allowed decision was refused")
		}
		other := p.allowed[0]
		other.FS++
		if p.ok(other) || p.ok(han.Config{}) {
			t.Fatalf("%s/%s m=%d accepted a decision no table makes", p.cluster, p.kind, p.m)
		}
	}
}

// TestContractMatchesCode checks BENCHMARK.json against the metric and
// workload lists the benchmark prints.
func TestContractMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var c struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the contract, %d in the code", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: contract %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	for _, l := range []struct {
		name     string
		contract []metric
		code     []metricDef
	}{{"end_to_end", c.EndToEnd, endToEnd}, {"per_layer", c.PerLayer, perLayer}} {
		if len(l.contract) != len(l.code) {
			t.Fatalf("%s: %d metrics in the contract, %d in the code", l.name, len(l.contract), len(l.code))
		}
		for i, m := range l.contract {
			if m.Name != l.code[i].name || m.Unit != l.code[i].unit {
				t.Errorf("%s %d: contract %s [%s], code %s [%s]", l.name, i, m.Name, m.Unit, l.code[i].name, l.code[i].unit)
			}
		}
	}
	for _, l := range layers {
		found := false
		for _, d := range perLayer {
			found = found || d.name == "cpu."+l
		}
		if !found {
			t.Errorf("profile layer %s has no cpu.%s metric", l, l)
		}
	}
}
