package sim

import "testing"

// BenchmarkEventDispatch measures raw scheduler throughput: one callback
// event per iteration.
func BenchmarkEventDispatch(b *testing.B) {
	e := New()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			e.After(1e-9, tick)
		}
	}
	e.After(1e-9, tick)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcHandoff measures the process switch cost: one Sleep (park
// + resume) per iteration.
func BenchmarkProcHandoff(b *testing.B) {
	e := New()
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1e-9)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSpawn measures a process's whole life: spawn, start, and
// finish, one process per iteration. Each process spawns its successor,
// which starts once it has finished, so every start after the first can
// reuse the finished process's coroutine.
func BenchmarkSpawn(b *testing.B) {
	e := New()
	n := 0
	var body func(*Proc)
	body = func(p *Proc) {
		n++
		if n < b.N {
			e.Spawn("s", body)
		}
	}
	e.Spawn("s", body)
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSignalFanout measures waking many waiters from one signal.
func BenchmarkSignalFanout(b *testing.B) {
	const waiters = 64
	for i := 0; i < b.N; i++ {
		e := New()
		s := NewSignal()
		for w := 0; w < waiters; w++ {
			e.Spawn("w", func(p *Proc) { p.Wait(s) })
		}
		e.At(1, func() { s.Fire(e) })
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
