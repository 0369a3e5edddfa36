package sim

import (
	"errors"
	"strings"
	"testing"

	"github.com/hanrepro/han/internal/exec"
)

func TestRunUntilBoundaryIsExclusive(t *testing.T) {
	e := New()
	var fired []Time
	for _, at := range []Time{1, 2, 3} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	if err := e.runUntil(2); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("runUntil(2) fired %v, want [1]", fired)
	}
	if next, ok := e.nextEventTime(); !ok || next != 2 {
		t.Fatalf("nextEventTime = %v, %v; want 2, true", next, ok)
	}
	if err := e.runUntil(10); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 {
		t.Fatalf("after runUntil(10): fired %v, want all three", fired)
	}
}

// TestRunUntilPreservesSameInstantOrder guards the peek-don't-pop detail:
// an event parked at the window boundary must keep its sequence number, so
// same-instant events still dispatch in schedule order in a later window.
func TestRunUntilPreservesSameInstantOrder(t *testing.T) {
	e := New()
	var order []string
	e.At(5, func() { order = append(order, "first") })
	e.At(5, func() { order = append(order, "second") })
	if err := e.runUntil(5); err != nil { // boundary: dispatches nothing
		t.Fatal(err)
	}
	if len(order) != 0 {
		t.Fatalf("runUntil(5) dispatched %v, want nothing (exclusive bound)", order)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("same-instant order %v, want [first second]", order)
	}
}

func TestNextEventTimeSkipsCancelled(t *testing.T) {
	e := New()
	tm := e.At(1, func() { t.Fatal("cancelled event fired") })
	e.At(2, func() {})
	tm.Cancel()
	if next, ok := e.nextEventTime(); !ok || next != 2 {
		t.Fatalf("nextEventTime = %v, %v; want 2, true (cancelled top skipped)", next, ok)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// reverseRunner advances partitions serially in reverse index order: an
// adversarial-but-deterministic Runner proving results do not depend on
// partition placement or order within a round.
type reverseRunner struct{}

func (reverseRunner) Run(n int, job func(int)) {
	for i := n - 1; i >= 0; i-- {
		job(i)
	}
}

// buildRing wires a 4-partition token ring with per-link lookaheads and
// value-dependent local work, returning the per-partition visit traces.
// tokens tokens each make laps full laps; every hop is one Link.Send.
func buildRing(par *Parallel, tokens, laps int) (times *[4][]Time, vals *[4][]int) {
	times = new([4][]Time)
	vals = new([4][]int)
	look := []Time{1e-3, 2e-3, 3e-3, 4e-3}
	links := make([]*Link, 4) // links[i]: i -> (i+1)%4
	for i := 0; i < 4; i++ {
		links[i] = par.Connect(i, (i+1)%4, look[i])
	}
	hops := 4 * laps
	for i := 0; i < 4; i++ {
		i := i
		in := links[(i+3)%4]
		out := links[i]
		par.Part(i).Engine().Spawn("ring", func(p *Proc) {
			for n := 0; n < tokens*laps; n++ {
				v := in.Recv(p).(int)
				times[i] = append(times[i], p.Now())
				vals[i] = append(vals[i], v)
				p.Sleep(Time(i+1)*1e-4 + Time(v%3)*1e-5)
				if v < hops {
					out.Send(out.Lookahead()+Time(v%2)*5e-4, v+1)
				}
			}
		})
	}
	par.Part(0).Engine().Spawn("inject", func(p *Proc) {
		for k := 0; k < tokens; k++ {
			links[0].Send(links[0].Lookahead(), 1)
			p.Sleep(7e-5)
		}
	})
	return times, vals
}

func ringTraces(t *testing.T, mk func() *Parallel, r Runner) (*[4][]Time, *[4][]int) {
	t.Helper()
	par := mk()
	times, vals := buildRing(par, 3, 5)
	if err := par.Run(r); err != nil {
		t.Fatalf("ring run failed: %v", err)
	}
	return times, vals
}

// TestParallelRingMatchesOracle is the sim-layer differential: the same
// token-ring workload on the shared serial engine (oracle) and on the
// windowed engine under several Runners must produce identical visit
// times and values at every partition.
func TestParallelRingMatchesOracle(t *testing.T) {
	wantT, wantV := ringTraces(t, func() *Parallel { return NewOracle(4) }, nil)
	for i := 0; i < 4; i++ {
		if len(wantT[i]) != 15 {
			t.Fatalf("oracle partition %d saw %d visits, want 15", i, len(wantT[i]))
		}
	}
	runners := map[string]func() Runner{
		"serial":  func() Runner { return nil },
		"reverse": func() Runner { return reverseRunner{} },
		"pool2":   func() Runner { return exec.NewPool(2) },
		"pool8":   func() Runner { return exec.NewPool(8) },
	}
	for _, name := range []string{"serial", "reverse", "pool2", "pool8"} {
		r := runners[name]()
		gotT, gotV := ringTraces(t, func() *Parallel { return NewParallel(4) }, r)
		if p, ok := r.(*exec.Pool); ok {
			p.Close()
		}
		for i := 0; i < 4; i++ {
			if len(gotT[i]) != len(wantT[i]) {
				t.Fatalf("%s: partition %d saw %d visits, oracle saw %d", name, i, len(gotT[i]), len(wantT[i]))
			}
			for j := range gotT[i] {
				if gotT[i][j] != wantT[i][j] || gotV[i][j] != wantV[i][j] {
					t.Fatalf("%s: partition %d visit %d = (%v, %d), oracle (%v, %d)",
						name, i, j, gotT[i][j], gotV[i][j], wantT[i][j], wantV[i][j])
				}
			}
		}
	}
}

func TestSendBelowLookaheadPanics(t *testing.T) {
	par := NewParallel(2)
	l := par.Connect(0, 1, 1e-3)
	par.Part(0).Engine().Spawn("p", func(p *Proc) {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(toString(r), "below lookahead") {
				t.Errorf("Send below lookahead: recover = %v, want lookahead panic", r)
			}
			p.Exit()
		}()
		l.Send(0.5e-3, nil)
	})
	_ = par.Run(nil)
}

func toString(v interface{}) string {
	if s, ok := v.(string); ok {
		return s
	}
	if e, ok := v.(error); ok {
		return e.Error()
	}
	return ""
}

func TestSendOutsideWindowPanics(t *testing.T) {
	par := NewParallel(2)
	l := par.Connect(0, 1, 1e-3)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(toString(r), "outside source partition") {
			t.Errorf("Send outside window: recover = %v, want window panic", r)
		}
	}()
	l.Send(2e-3, nil) // no partition is advancing
}

func TestRecvOutsideDestinationPanics(t *testing.T) {
	par := NewParallel(2)
	l := par.Connect(0, 1, 1e-3)
	par.Part(0).Engine().Spawn("wrong", func(p *Proc) {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(toString(r), "outside the destination") {
				t.Errorf("Recv from wrong partition: recover = %v, want destination panic", r)
			}
			p.Exit()
		}()
		l.Recv(p) // p belongs to partition 0, link delivers to 1
	})
	_ = par.Run(nil)
}

// TestParallelDeadlockReport: a receiver whose link never delivers must
// surface as a ParallelDeadlockError naming the partition, process, and
// link park site once the whole system quiesces.
func TestParallelDeadlockReport(t *testing.T) {
	par := NewParallel(3)
	l := par.Connect(0, 2, 1e-3)
	par.Part(2).Engine().Spawn("starved", func(p *Proc) {
		l.Recv(p)
	})
	par.Part(1).Engine().Spawn("busy", func(p *Proc) { p.Sleep(5e-3) })
	err := par.Run(nil)
	var dead *ParallelDeadlockError
	if !errors.As(err, &dead) {
		t.Fatalf("Run = %v, want *ParallelDeadlockError", err)
	}
	if len(dead.Parked) != 1 || dead.Parked[0] != "starved" || dead.Parts[0] != 2 {
		t.Fatalf("deadlock report %+v, want partition 2 proc starved", dead)
	}
	if !strings.Contains(dead.Sites[0], "0->2") {
		t.Fatalf("park site %q does not name the link", dead.Sites[0])
	}
}

// TestPartitionBudgetError: a partition exceeding its event budget aborts
// the parallel run with a PartitionError wrapping ErrEventBudget.
func TestPartitionBudgetError(t *testing.T) {
	par := NewParallel(2)
	par.Connect(0, 1, 1e-3)
	spin := par.Part(1).Engine()
	spin.MaxEvents = 10
	var rearm func(at Time)
	rearm = func(at Time) { spin.At(at, func() { rearm(at + 1e-4) }) }
	rearm(0)
	err := par.Run(nil)
	var pe *PartitionError
	if !errors.As(err, &pe) || pe.Part != 1 {
		t.Fatalf("Run = %v, want *PartitionError for partition 1", err)
	}
	var budget *ErrEventBudget
	if !errors.As(err, &budget) {
		t.Fatalf("PartitionError does not wrap ErrEventBudget: %v", err)
	}
}

// TestKillLinkedReceiver: killing a process parked in Link.Recv unwinds it
// cleanly and the system drains without a deadlock report.
func TestKillLinkedReceiver(t *testing.T) {
	par := NewParallel(2)
	l := par.Connect(0, 1, 1e-3)
	e1 := par.Part(1).Engine()
	victim := e1.Spawn("victim", func(p *Proc) {
		l.Recv(p)
		t.Error("victim ran past a kill")
	})
	e1.At(2e-3, func() { e1.Kill(victim) })
	if err := par.Run(nil); err != nil {
		t.Fatalf("Run after kill = %v, want clean drain", err)
	}
}

// TestOracleModeIsSharedEngine pins the oracle construction: every
// partition of a NewOracle coordinator returns the same engine, so oracle
// workloads execute on the untouched serial engine.
func TestOracleModeIsSharedEngine(t *testing.T) {
	par := NewOracle(3)
	if !par.Oracle() {
		t.Fatal("NewOracle coordinator does not report Oracle()")
	}
	e := par.Part(0).Engine()
	for i := 1; i < 3; i++ {
		if par.Part(i).Engine() != e {
			t.Fatalf("oracle partition %d has a private engine", i)
		}
	}
	win := NewParallel(2)
	if win.Oracle() || win.Part(0).Engine() == win.Part(1).Engine() {
		t.Fatal("windowed partitions must own private engines")
	}
}
