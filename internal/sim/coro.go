//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// coro is a reusable coroutine that runs process bodies, one at a time.
// The engine switches into it with next (an evStart or evResume event);
// the process switches back with yield (park, or the body returning).
// When a body returns, the coroutine goes onto its engine's idle list and
// the next evStart binds it to a fresh process instead of creating a new
// coroutine: iter.Pull costs a goroutine and about twenty allocations.
type coro struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	// p and body are the process to run next, set by start and taken by
	// runBody.
	p    *Proc
	body func(*Proc)
}

// loop is the coroutine's whole life: run the bound body, hand control
// back, and wait to be bound again. stop makes yield return false, which
// ends the loop and with it the coroutine.
func (c *coro) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.runBody()
		if !yield(struct{}{}) {
			return
		}
	}
}

// runBody runs one process body to completion, turning a Kill/Exit unwind
// into a clean exit and any other panic into the engine's panicVal, which
// Run re-panics on the engine's side.
func (c *coro) runBody() {
	p, body := c.p, c.body
	c.p, c.body = nil, nil
	defer func() {
		p.finished = true
		if r := recover(); r != nil {
			if _, killed := r.(procExit); !killed {
				p.e.panicVal = fmt.Sprintf("sim: process %q panicked: %v", p.name, r)
			}
		}
	}()
	body(p)
}

// start binds p to an idle coroutine (or a new one) and runs its body up
// to the first scheduling point. A process killed before it started
// finishes without running anything.
func (e *Engine) start(p *Proc, body func(*Proc)) {
	if p.dying {
		p.finished = true
		e.live--
		return
	}
	var c *coro
	if n := len(e.idle); n > 0 {
		c = e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
	} else {
		c = &coro{}
		c.next, c.stop = iter.Pull(c.loop)
	}
	c.p, c.body, p.co = p, body, c
	e.resume(p)
}

// resume switches into p's coroutine until the process parks or finishes;
// a finished process hands its coroutine back to the idle list.
func (e *Engine) resume(p *Proc) {
	c := p.co
	c.next()
	if p.finished {
		p.co = nil
		e.live--
		e.idle = append(e.idle, c)
	}
}

// stopIdle ends every idle coroutine, so none outlives a drained or
// aborted run.
func (e *Engine) stopIdle() {
	for i, c := range e.idle {
		c.stop()
		e.idle[i] = nil
	}
	e.idle = e.idle[:0]
}

// park switches back to the engine and returns once resumed, unwinding
// the process if it was killed meanwhile.
func (p *Proc) park() {
	p.co.yield(struct{}{})
	if p.dying {
		panic(procExit{})
	}
}
