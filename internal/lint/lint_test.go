package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"github.com/hanrepro/han/internal/lint"
	"github.com/hanrepro/han/internal/lint/linttest"
)

func TestSimtime(t *testing.T) {
	linttest.Run(t, lint.SimtimeAnalyzer, "simtime")
}

func TestWorldrand(t *testing.T) {
	linttest.Run(t, lint.WorldrandAnalyzer, "worldrand")
}

// TestWorldrandHome checks the internal/mpi exemption: the seeded
// plumbing may construct RNGs, global draws stay forbidden.
func TestWorldrandHome(t *testing.T) {
	linttest.Run(t, lint.WorldrandAnalyzer, "internal/mpi")
}

func TestMaporder(t *testing.T) {
	linttest.Run(t, lint.MaporderAnalyzer, "maporder")
}

func TestReqwait(t *testing.T) {
	linttest.Run(t, lint.ReqwaitAnalyzer, "reqwait")
}

func TestTypederr(t *testing.T) {
	linttest.Run(t, lint.TypederrAnalyzer, "typederrfix")
}

// TestSimtimeScope pins the wall-clock exemptions: internal/exec (host
// worker pool, fenced by enginebound) and internal/serve (decision
// service, fenced by servebound) may spawn host goroutines; everything
// else stays under the ban.
func TestSimtimeScope(t *testing.T) {
	applies := lint.SimtimeAnalyzer.AppliesTo
	for path, want := range map[string]bool{
		"github.com/hanrepro/han/internal/exec":  false,
		"internal/exec":                          false,
		"github.com/hanrepro/han/internal/serve": false,
		"internal/serve":                         false,
		"github.com/hanrepro/han/internal/sim":   true,
		"github.com/hanrepro/han/internal/mpi":   true,
		"simtime":                                true,
	} {
		if got := applies(path); got != want {
			t.Errorf("simtime.AppliesTo(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestEngineboundScope pins the inverse scoping: the import ban applies
// ONLY to internal/exec (and opt-in fixtures) — it is the price of that
// package's simtime exemption.
func TestEngineboundScope(t *testing.T) {
	applies := lint.EngineboundAnalyzer.AppliesTo
	for path, want := range map[string]bool{
		"github.com/hanrepro/han/internal/exec":     true,
		"internal/exec":                             true,
		"github.com/hanrepro/han/internal/sim":      false,
		"github.com/hanrepro/han/internal/autotune": false,
		"enginebound":                               true,
	} {
		if got := applies(path); got != want {
			t.Errorf("enginebound.AppliesTo(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestEnginebound feeds the pass a synthetic executor file. The pass reads
// only the import table, so the package is hand-built from a parse — no
// type-checking needed.
func TestEnginebound(t *testing.T) {
	const src = `package exec

import (
	"sync"

	"github.com/hanrepro/han/internal/metrics"
	"github.com/hanrepro/han/internal/sim"
)

var _ sync.Mutex
var _ = metrics.Opts{}
var _ = sim.Time(0)
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "exec.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &lint.Package{
		Path:  "github.com/hanrepro/han/internal/exec",
		Fset:  fset,
		Files: []*ast.File{f},
	}
	diags := lint.RunAnalyzers(pkg, []*lint.Analyzer{lint.EngineboundAnalyzer})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly 1 (sim banned, sync and metrics allowed): %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "internal/sim") {
		t.Errorf("diagnostic does not name the banned import: %s", diags[0].Message)
	}
}

// TestServeboundScope pins the serving fence's scoping: the internal/sim
// import ban applies ONLY to internal/serve (and opt-in fixtures) — the
// price of that package's simtime exemption, mirroring enginebound.
func TestServeboundScope(t *testing.T) {
	applies := lint.ServeboundAnalyzer.AppliesTo
	for path, want := range map[string]bool{
		"github.com/hanrepro/han/internal/serve": true,
		"internal/serve":                         true,
		"github.com/hanrepro/han/internal/sim":   false,
		"github.com/hanrepro/han/internal/exec":  false,
		"servebound":                             true,
	} {
		if got := applies(path); got != want {
			t.Errorf("servebound.AppliesTo(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestServebound feeds the pass a synthetic serving file. Like
// enginebound, the pass reads only the import table, so the package is
// hand-built from a parse. serve's legitimate engine-adjacent imports
// (autotune, han) stay allowed; only internal/sim trips the fence.
func TestServebound(t *testing.T) {
	const src = `package serve

import (
	"net"

	"github.com/hanrepro/han/internal/autotune"
	"github.com/hanrepro/han/internal/han"
	"github.com/hanrepro/han/internal/sim"
)

var _ net.Conn
var _ = autotune.Table{}
var _ = han.Config{}
var _ = sim.Time(0)
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "serve.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &lint.Package{
		Path:  "github.com/hanrepro/han/internal/serve",
		Fset:  fset,
		Files: []*ast.File{f},
	}
	diags := lint.RunAnalyzers(pkg, []*lint.Analyzer{lint.ServeboundAnalyzer})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly 1 (sim banned; net, autotune, han allowed): %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "internal/sim") {
		t.Errorf("diagnostic does not name the banned import: %s", diags[0].Message)
	}
}

// TestTypederrScope pins the pass's package scoping: it must apply to the
// real han/coll packages and to fixture packages, and skip everything
// else (a panic in internal/sim is an invariant assertion, not an API
// discipline violation).
func TestTypederrScope(t *testing.T) {
	applies := lint.TypederrAnalyzer.AppliesTo
	for path, want := range map[string]bool{
		"github.com/hanrepro/han/internal/han":  true,
		"github.com/hanrepro/han/internal/coll": true,
		"github.com/hanrepro/han/internal/sim":  false,
		"github.com/hanrepro/han/internal/mpi":  false,
		"typederrfix":                           true,
	} {
		if got := applies(path); got != want {
			t.Errorf("typederr.AppliesTo(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestArenaalloc(t *testing.T) {
	linttest.Run(t, lint.ArenaallocAnalyzer, "arenaalloc")
}

// TestDetflow drives the taint engine end to end inside one package:
// direct flows, 2- and 3-deep call chains, argument→result flows, sinks
// inside callees, struct fields, exec-closure mutation, select arms, map
// order with and without the sort cleanse, pointer-identity sorting, and
// the seeded-RNG false-positive guard.
func TestDetflow(t *testing.T) {
	linttest.Run(t, lint.DetflowAnalyzer, "detflow", "internal/sim", "internal/exec")
}

// TestDetflowCrossPackage proves taint crosses package boundaries via
// the facts layer: the source is two calls deep in a dependency, and the
// full source→sink path is still reported at the consumer.
func TestDetflowCrossPackage(t *testing.T) {
	linttest.Run(t, lint.DetflowAnalyzer, "detflowx/use", "internal/sim", "detflowx/taintlib")
}

func TestEpochsafe(t *testing.T) {
	linttest.Run(t, lint.EpochsafeAnalyzer, "epochsafe", "internal/mpi")
}

func TestMetriclabel(t *testing.T) {
	linttest.Run(t, lint.MetriclabelAnalyzer, "metriclabel", "internal/metrics")
}

func TestFloatorder(t *testing.T) {
	linttest.Run(t, lint.FloatorderAnalyzer, "floatorder")
}

// TestDetflowScope pins the executor exemption parity with simtime:
// summaries are still computed there (UsesFacts), diagnostics are not
// reported.
func TestDetflowScope(t *testing.T) {
	applies := lint.DetflowAnalyzer.AppliesTo
	for path, want := range map[string]bool{
		"github.com/hanrepro/han/internal/exec": false,
		"internal/exec":                         false,
		"github.com/hanrepro/han/internal/sim":  true,
		"detflow":                               true,
	} {
		if got := applies(path); got != want {
			t.Errorf("detflow.AppliesTo(%q) = %v, want %v", path, got, want)
		}
	}
	if !lint.DetflowAnalyzer.UsesFacts {
		t.Error("detflow must be a facts pass: dependents need its summaries")
	}
}
