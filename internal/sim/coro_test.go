package sim

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/hanrepro/han/internal/exec"
)

// liveCoroutines counts the goroutines iter.Pull created that are still
// alive — running, suspended in a process body, or idle — by reading a
// full stack dump. Unlike runtime.NumGoroutine it does not see unrelated
// goroutines, such as another test's closed pool workers still on their
// way out.
func liveCoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("created by iter.Pull"))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// Engines that drain must stop every coroutine they created: after many
// runs the goroutine count is back at its baseline.
func TestCoroutinesStopAfterDrain(t *testing.T) {
	base, baseG := liveCoroutines(), runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		e := New()
		s := NewSignal()
		for w := 0; w < 20; w++ {
			w := w
			e.Spawn("w", func(p *Proc) {
				p.Sleep(Time(w) * 1e-3)
				p.Wait(s)
			})
		}
		e.At(1, func() { s.Fire(e) })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if len(e.idle) != 0 {
			t.Fatalf("run %d: %d idle coroutines left after drain", i, len(e.idle))
		}
	}
	if n := liveCoroutines(); n != base {
		t.Fatalf("%d coroutines alive after the engines drained, want the baseline %d", n, base)
	}
	if n := runtime.NumGoroutine(); n > baseG {
		t.Fatalf("%d goroutines after the engines drained, above the baseline %d", n, baseG)
	}
}

// A deadlocked run stops its idle coroutines but keeps the parked
// processes' ones: exactly one goroutine per parked process remains.
func TestDeadlockKeepsOnlyParkedCoroutines(t *testing.T) {
	base := liveCoroutines()
	e := New()
	never := NewSignal()
	for i := 0; i < 5; i++ {
		e.Spawn(fmt.Sprintf("done%d", i), func(p *Proc) { p.Sleep(1) })
	}
	e.SpawnAt(2, "stuck0", func(p *Proc) { p.Wait(never) })
	e.SpawnAt(2, "stuck1", func(p *Proc) { p.Wait(never) })
	err := e.Run()
	if _, ok := err.(*DeadlockError); !ok {
		t.Fatalf("Run = %v, want a *DeadlockError", err)
	}
	if len(e.idle) != 0 {
		t.Fatalf("%d idle coroutines left after the deadlocked run", len(e.idle))
	}
	if n := liveCoroutines(); n != base+2 {
		t.Fatalf("%d coroutines alive after the deadlock, want %d (baseline + 2 parked)", n, base+2)
	}
}

// A process killed before its start event runs no body, even when an
// idle coroutine is waiting to take it; the next process still runs on
// that coroutine.
func TestKillBeforeStartOnReusedCoroutine(t *testing.T) {
	e := New()
	var first, third *coro
	var ranVictim bool
	e.Spawn("first", func(p *Proc) { first = p.co })
	victim := e.SpawnAt(5, "victim", func(p *Proc) { ranVictim = true })
	e.At(1, func() {
		if len(e.idle) != 1 {
			t.Errorf("idle list holds %d coroutines, want 1", len(e.idle))
		}
		e.Kill(victim)
	})
	e.SpawnAt(6, "third", func(p *Proc) { third = p.co })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ranVictim {
		t.Fatal("process killed before its start ran its body")
	}
	if !victim.finished || victim.co != nil {
		t.Fatalf("victim state: finished=%v co=%p", victim.finished, victim.co)
	}
	if first == nil || third != first {
		t.Fatalf("third process ran on coroutine %p, want the reused %p", third, first)
	}
	if e.liveProcs() != 0 {
		t.Fatalf("liveProcs = %d after drain", e.liveProcs())
	}
}

// A panicking body makes Run re-panic with the process name, and its
// coroutine survives the panic: the engine can run again, and the next
// process runs on that same coroutine.
func TestPanicLeavesCoroutinePoolUsable(t *testing.T) {
	base := liveCoroutines()
	e := New()
	var panicked, next *coro
	e.SpawnAt(1, "bad", func(p *Proc) {
		panicked = p.co
		panic("boom")
	})
	e.At(10, func() {}) // keeps the queue non-empty past the panic
	func() {
		defer func() {
			r := recover()
			msg, _ := r.(string)
			if !strings.Contains(msg, `sim: process "bad" panicked: boom`) {
				t.Fatalf("Run panicked with %v, want the process panic message", r)
			}
		}()
		_ = e.Run()
		t.Fatal("Run returned instead of re-panicking")
	}()
	if len(e.idle) != 1 || e.idle[0] != panicked {
		t.Fatalf("idle list %v after the panic, want the panicked process's coroutine", e.idle)
	}
	e.Spawn("good", func(p *Proc) {
		next = p.co
		p.Sleep(1)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run after a recovered panic: %v", err)
	}
	if next != panicked {
		t.Fatalf("process after the panic ran on %p, want the reused %p", next, panicked)
	}
	if n := liveCoroutines(); n != base {
		t.Fatalf("%d coroutines alive after the second run drained, want the baseline %d", n, base)
	}
}

// The windowed engine on a real two-worker pool: partition engines, with
// their coroutines, move between pool workers from window to window while
// short-lived helpers keep reusing coroutines. Run under -race this checks
// that the round barrier and coroutine switches order every access; the
// traces must still match the oracle's.
func TestParallelCoroutinesMigrateAcrossWorkers(t *testing.T) {
	base := liveCoroutines()
	build := func(par *Parallel) *[4][]Time {
		times, _ := buildRing(par, 3, 5)
		for i := 0; i < 4; i++ {
			e := par.Part(i).Engine()
			e.Spawn("spawner", func(p *Proc) {
				for k := 0; k < 40; k++ {
					done := NewSignal()
					e.Spawn("helper", func(h *Proc) {
						h.Sleep(2e-4)
						done.Fire(e)
					})
					p.Wait(done)
				}
			})
		}
		return times
	}
	oracle := NewOracle(4)
	want := build(oracle)
	if err := oracle.Run(nil); err != nil {
		t.Fatal(err)
	}
	pool := exec.NewPool(2)
	for rep := 0; rep < 3; rep++ {
		par := NewParallel(4)
		got := build(par)
		if err := par.Run(pool); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
				t.Fatalf("rep %d partition %d: visit times %v, oracle %v", rep, i, got[i], want[i])
			}
			if e := par.Part(i).Engine(); len(e.idle) != 0 || e.liveProcs() != 0 {
				t.Fatalf("rep %d partition %d: %d idle coroutines, %d live processes after the run", rep, i, len(e.idle), e.liveProcs())
			}
		}
	}
	pool.Close()
	if n := liveCoroutines(); n != base {
		t.Fatalf("%d coroutines alive after the runs, want the baseline %d", n, base)
	}
}
