package sim

import (
	"fmt"
	"math"
	"sort"
)

// This file implements the conservative parallel discrete-event engine: a
// set of partitions, each owning a private serial Engine, synchronized by
// bounded windows derived from cross-partition link lookahead (the
// synchronous variant of null-message conservative PDES: every barrier
// round is one implicit null message carrying the global safe horizon).
//
// Determinism contract: partitions hold disjoint simulation state and
// interact only through Links. Deliveries at a destination are applied by
// one drain event per (destination, instant), ordered by (link id, link
// sequence) — the same code path in both windowed and oracle modes — so the
// observable behaviour of every partition is independent of how partitions
// interleave on host workers. The one caveat: if a partition schedules a
// local event at exactly the floating-point instant of a cross-link
// arrival, the drain's position among same-instant local events may differ
// between modes. Workloads keep arrival instants off local event instants
// (they derive from flow completions plus link latency, not from round
// constants); the differential matrix in internal/bench enforces the
// resulting bit-identity empirically.

// Runner abstracts the host-parallel executor that advances partitions
// within one window: Run(n, job) must invoke job(i) exactly once for each
// i in [0, n) and return only after every invocation completed, with a
// happens-before edge from each job to the return (exec.Executor and
// exec.Pool both qualify). A nil Runner means an inline serial loop.
type Runner interface {
	Run(n int, job func(i int))
}

type serialRunner struct{}

func (serialRunner) Run(n int, job func(int)) {
	for i := 0; i < n; i++ {
		job(i)
	}
}

// delivery is one in-flight cross-link message.
type delivery struct {
	t    Time
	link *Link
	seq  uint64
	msg  interface{}
}

// Parallel coordinates a set of partitions (logical processes) over
// lookahead-bounded windows. Construct with NewParallel (windowed: one
// private Engine per partition, advanced in host-parallel rounds) or
// NewOracle (reference mode: every partition shares one serial Engine and
// Run degenerates to Engine.Run — the bit-identical oracle the windowed
// engine is tested against). Topology (Connect) must be complete before
// Run; partitions and links must not be added mid-run.
type Parallel struct {
	parts   []*Partition
	links   []*Link
	oracle  *Engine // non-nil: all partitions share this serial engine
	minLook Time
}

// NewParallel returns a windowed parallel coordinator with n partitions,
// each owning a private Engine.
func NewParallel(n int) *Parallel {
	p := &Parallel{}
	for i := 0; i < n; i++ {
		p.parts = append(p.parts, &Partition{
			par:    p,
			idx:    i,
			eng:    New(),
			drains: make(map[Time]bool),
		})
	}
	return p
}

// NewOracle returns a coordinator with n partitions all sharing one serial
// Engine: the reference oracle. Workloads built against it execute on the
// untouched serial engine, and Run is exactly Engine.Run.
func NewOracle(n int) *Parallel {
	e := New()
	p := &Parallel{oracle: e}
	for i := 0; i < n; i++ {
		p.parts = append(p.parts, &Partition{
			par:    p,
			idx:    i,
			eng:    e,
			drains: make(map[Time]bool),
		})
	}
	return p
}

// Oracle reports whether this coordinator runs all partitions on one
// shared serial engine.
func (p *Parallel) Oracle() bool { return p.oracle != nil }

// Parts returns the number of partitions.
func (p *Parallel) Parts() int { return len(p.parts) }

// Part returns partition i.
func (p *Parallel) Part(i int) *Partition { return p.parts[i] }

// MinLookahead returns the smallest lookahead over all connected links:
// the window width of the conservative synchronization protocol.
func (p *Parallel) MinLookahead() Time { return p.minLook }

// Connect creates a unidirectional Link from partition src to partition
// dst with the given lookahead: every Send on the link must declare a
// delay of at least that much virtual time, which is what makes windows of
// that width safe to run without inter-partition communication.
func (p *Parallel) Connect(src, dst int, lookahead Time) *Link {
	if src < 0 || src >= len(p.parts) || dst < 0 || dst >= len(p.parts) {
		panic(fmt.Sprintf("sim: Connect(%d, %d) out of range for %d partitions", src, dst, len(p.parts)))
	}
	if src == dst {
		panic("sim: Connect requires distinct partitions; intra-partition events need no link")
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: Connect lookahead %v must be positive", lookahead))
	}
	l := &Link{par: p, id: len(p.links), src: src, dst: dst, look: lookahead, sig: NewSignal()}
	p.links = append(p.links, l)
	if p.minLook == 0 || lookahead < p.minLook {
		p.minLook = lookahead
	}
	return l
}

// Run drives the simulation to completion. In oracle mode it is exactly
// the serial Engine.Run. In windowed mode it repeatedly computes the
// global minimum next-event time T, advances every partition through the
// window [T, T+minLookahead) — using r to run partitions on host workers —
// and exchanges staged link deliveries at the barrier. It returns nil on a
// clean drain, a *PartitionError wrapping the first (lowest-index)
// partition Stop/budget error, or a *ParallelDeadlockError when the whole
// system quiesces with processes still parked. A panic inside any
// partition's process is re-panicked from Run.
func (p *Parallel) Run(r Runner) error {
	if p.oracle != nil {
		return p.oracle.Run()
	}
	if r == nil {
		r = serialRunner{}
	}
	for {
		t, ok := p.nextTime()
		if !ok {
			break
		}
		horizon := Time(math.Inf(1))
		if len(p.links) > 0 {
			horizon = t + p.minLook
			if horizon <= t {
				panic(fmt.Sprintf("sim: lookahead %v underflows at t=%v; window cannot advance", p.minLook, t))
			}
		}
		r.Run(len(p.parts), func(i int) { p.parts[i].advance(horizon) })
		if err := p.firstErr(); err != nil {
			return err
		}
		// Barrier: publish every link's staged sends to its destination
		// inbox, single-threaded, in link-id order.
		for _, l := range p.links {
			if len(l.out) == 0 {
				continue
			}
			dst := p.parts[l.dst]
			dst.inbox = append(dst.inbox, l.out...)
			for i := range l.out {
				l.out[i] = delivery{}
			}
			l.out = l.out[:0]
		}
	}
	return p.deadlock()
}

// nextTime returns the minimum over all partitions of the next local event
// time and the earliest pending (not yet drained) link arrival.
func (p *Parallel) nextTime() (Time, bool) {
	var best Time
	ok := false
	for _, pt := range p.parts {
		if t, has := pt.eng.nextEventTime(); has && (!ok || t < best) {
			best, ok = t, true
		}
		for _, d := range pt.inbox {
			if !ok || d.t < best {
				best, ok = d.t, true
			}
		}
	}
	return best, ok
}

// firstErr returns the lowest-index partition error, wrapped, or nil. The
// index rule makes the aborting error deterministic when several
// partitions fail within one window.
func (p *Parallel) firstErr() error {
	for _, pt := range p.parts {
		if pt.err != nil {
			return &PartitionError{Part: pt.idx, Err: pt.err}
		}
	}
	return nil
}

// deadlock builds the cross-partition deadlock report after global
// quiescence, or returns nil when every process finished.
func (p *Parallel) deadlock() error {
	live := 0
	for _, pt := range p.parts {
		live += pt.eng.liveProcs()
	}
	if live == 0 {
		return nil
	}
	d := &ParallelDeadlockError{}
	for _, pt := range p.parts {
		if pt.eng.liveProcs() == 0 {
			continue
		}
		for _, pp := range pt.eng.ParkedSites() {
			d.Parts = append(d.Parts, pt.idx)
			d.Parked = append(d.Parked, pp.Name)
			d.Sites = append(d.Sites, pp.Site)
		}
	}
	return d
}

// Partition is one logical process of the parallel engine: a private
// Engine (windowed mode) plus the inbox of cross-link arrivals destined
// for it. All simulation state reachable from a partition's processes must
// be built on that partition's Engine and never shared with another
// partition — Links are the only sanctioned coupling.
type Partition struct {
	par *Parallel
	idx int
	eng *Engine

	// inbox holds published-but-not-yet-drained arrivals. Windowed mode
	// appends at the Run barrier; oracle mode appends directly at send
	// time. Owned by the destination partition during a window.
	inbox []delivery
	// drains dedupes drain-event scheduling per instant. Never ranged.
	drains map[Time]bool
	// batch is the per-instant delivery scratch, reused across drains.
	batch []delivery
	// active marks the partition as currently inside advance, so Send can
	// assert it runs in its source partition's window.
	active bool
	// err latches the partition's runUntil error (Stop or event budget).
	err error
}

// Engine returns the engine this partition's simulation state must be
// built on. In oracle mode every partition returns the one shared engine.
func (pt *Partition) Engine() *Engine { return pt.eng }

// Index returns the partition's index.
func (pt *Partition) Index() int { return pt.idx }

// advance runs one window: schedule drain events for every inbox arrival
// inside the window, then dispatch local events up to the horizon.
func (pt *Partition) advance(horizon Time) {
	if pt.err != nil {
		return
	}
	pt.active = true
	defer func() { pt.active = false }()
	pt.scheduleArrivals(horizon)
	pt.err = pt.eng.runUntil(horizon)
}

// scheduleArrivals sorts the inbox into canonical (time, link, sequence)
// order and schedules one drain event per distinct arrival instant below
// the horizon. Later instants stay in the inbox for future windows.
func (pt *Partition) scheduleArrivals(horizon Time) {
	if len(pt.inbox) == 0 {
		return
	}
	in := pt.inbox
	sort.Slice(in, func(i, j int) bool {
		if in[i].t != in[j].t {
			return in[i].t < in[j].t
		}
		if in[i].link.id != in[j].link.id {
			return in[i].link.id < in[j].link.id
		}
		return in[i].seq < in[j].seq
	})
	for _, d := range in {
		if d.t >= horizon {
			break
		}
		pt.scheduleDrain(d.t)
	}
}

// scheduleDrain arranges for drain(t) to run at instant t, once.
func (pt *Partition) scheduleDrain(t Time) {
	if pt.drains[t] {
		return
	}
	pt.drains[t] = true
	pt.eng.At(t, func() { pt.drain(t) })
}

// drain applies every inbox arrival at instant t to its link's delivered
// queue, in (link id, link sequence) order, firing each affected link's
// signal once after that link's batch is queued. This is the single
// canonical delivery path of both modes: the relative order of same-instant
// deliveries is a pure function of link topology and per-link send counts.
func (pt *Partition) drain(t Time) {
	delete(pt.drains, t)
	batch := pt.batch[:0]
	w := 0
	for _, d := range pt.inbox {
		if d.t == t {
			batch = append(batch, d)
		} else {
			pt.inbox[w] = d
			w++
		}
	}
	for i := w; i < len(pt.inbox); i++ {
		pt.inbox[i] = delivery{}
	}
	pt.inbox = pt.inbox[:w]
	sort.Slice(batch, func(i, j int) bool {
		if batch[i].link.id != batch[j].link.id {
			return batch[i].link.id < batch[j].link.id
		}
		return batch[i].seq < batch[j].seq
	})
	for i := 0; i < len(batch); {
		l := batch[i].link
		j := i
		for j < len(batch) && batch[j].link.id == l.id {
			l.q = append(l.q, batch[j].msg)
			j++
		}
		sig := l.sig
		l.sig = NewSignal()
		sig.Fire(pt.eng)
		i = j
	}
	for i := range batch {
		batch[i] = delivery{}
	}
	pt.batch = batch[:0]
}

// Link is a unidirectional FIFO channel between two partitions, the only
// sanctioned coupling in the parallel engine. Sends stage messages on the
// source side; deliveries appear on the destination side after the link's
// declared latency, in send order.
type Link struct {
	par      *Parallel
	id       int
	src, dst int
	look     Time
	seq      uint64
	out      []delivery    // staged sends (windowed mode), published at the barrier
	q        []interface{} // delivered, not yet received
	sig      *Signal       // fires on delivery; replaced per batch
}

// ID returns the link's index in Connect order.
func (l *Link) ID() int { return l.id }

// Src returns the source partition index.
func (l *Link) Src() int { return l.src }

// Dst returns the destination partition index.
func (l *Link) Dst() int { return l.dst }

// Lookahead returns the link's minimum declared latency.
func (l *Link) Lookahead() Time { return l.look }

// Send queues msg for delivery to the destination partition after delay
// virtual seconds (measured from the source engine's current instant).
// delay must be at least the link's lookahead — that bound is the entire
// safety argument of the windowed protocol — and Send must run in source
// partition context (engine or process, during that partition's window).
func (l *Link) Send(delay Time, msg interface{}) {
	if delay < l.look {
		panic(fmt.Sprintf("sim: Link.Send delay %v below lookahead %v on link %d->%d", delay, l.look, l.src, l.dst))
	}
	par := l.par
	var e *Engine
	if par.oracle != nil {
		e = par.oracle
	} else {
		src := par.parts[l.src]
		if !src.active {
			panic(fmt.Sprintf("sim: Link.Send outside source partition %d's window", l.src))
		}
		e = src.eng
	}
	d := delivery{t: e.now + delay, link: l, seq: l.seq, msg: msg}
	l.seq++
	if par.oracle != nil {
		dst := par.parts[l.dst]
		dst.inbox = append(dst.inbox, d)
		dst.scheduleDrain(d.t)
	} else {
		l.out = append(l.out, d)
	}
}

// linkSite labels a process parked in Link.Recv for deadlock reports.
type linkSite struct{ l *Link }

func (s linkSite) String() string {
	return fmt.Sprintf("link[%d] %d->%d recv", s.l.id, s.l.src, s.l.dst)
}

// Recv blocks the calling process until a message is delivered on the
// link, then dequeues and returns the oldest one. The process must belong
// to the destination partition.
func (l *Link) Recv(p *Proc) interface{} {
	if l.par.oracle == nil && p.e != l.par.parts[l.dst].eng {
		panic(fmt.Sprintf("sim: Link.Recv on link %d->%d from a process outside the destination partition", l.src, l.dst))
	}
	for len(l.q) == 0 {
		p.WaitAt(l.sig, linkSite{l})
	}
	return l.pop()
}

// TryRecv dequeues the oldest delivered message without blocking; ok is
// false when nothing has been delivered.
func (l *Link) TryRecv() (msg interface{}, ok bool) {
	if len(l.q) == 0 {
		return nil, false
	}
	return l.pop(), true
}

func (l *Link) pop() interface{} {
	msg := l.q[0]
	copy(l.q, l.q[1:])
	l.q[len(l.q)-1] = nil
	l.q = l.q[:len(l.q)-1]
	return msg
}

// Pending reports how many delivered messages await Recv.
func (l *Link) Pending() int { return len(l.q) }

// PartitionError wraps the error that aborted a partition, identifying it.
type PartitionError struct {
	Part int
	Err  error
}

func (e *PartitionError) Error() string {
	return fmt.Sprintf("sim: partition %d: %v", e.Part, e.Err)
}

// Unwrap exposes the underlying partition error to errors.Is/As.
func (e *PartitionError) Unwrap() error { return e.Err }

// ParallelDeadlockError is the cross-partition analogue of DeadlockError:
// the whole system quiesced (no events, no in-flight deliveries) with
// processes still parked. Entries are aligned: process Parked[i] of
// partition Parts[i] is blocked at Sites[i].
type ParallelDeadlockError struct {
	Parts  []int
	Parked []string
	Sites  []string
}

func (d *ParallelDeadlockError) Error() string {
	labelled := make([]string, len(d.Parked))
	for i, name := range d.Parked {
		l := fmt.Sprintf("p%d:%s", d.Parts[i], name)
		if d.Sites[i] != "" {
			l += " waiting on " + d.Sites[i]
		}
		labelled[i] = l
	}
	return fmt.Sprintf("sim: parallel deadlock: %d process(es) parked forever: %v", len(d.Parked), labelled)
}
