package mpi

import (
	"github.com/hanrepro/han/internal/sim"
	"github.com/hanrepro/han/internal/trace"
)

// This file holds the reference P2P protocol: the original heap
// implementation, kept only as the oracle the pooled path (pool.go) is
// held to. Every send and receive allocates fresh records and closures,
// and the per-pair wire and envelope FIFOs are chains of signals rather
// than queues. The differential suites run the same workload on both and
// require identical sim bits, dead reports and request errors.

// refP2P is the oracle's per-world state: the tails of the per-pair
// signal chains.
type refP2P struct {
	w        *World
	pairTail map[pairKey]*sim.Signal // last payload on each pair's wire
	envTail  map[pairKey]*sim.Signal // last envelope on each pair
}

// useReferenceP2P switches w onto the oracle. Call before any send or
// receive: the two implementations cannot share a pair's FIFOs.
func useReferenceP2P(w *World) {
	w.oracle = &refP2P{
		w:        w,
		pairTail: make(map[pairKey]*sim.Signal),
		envTail:  make(map[pairKey]*sim.Signal),
	}
}

func (o *refP2P) isend(c *Comm, p *Proc, buf Buf, dst, tag, me int) *Request {
	w := o.w
	req := NewRequest()
	req.site = WaitSite{Op: "send", Peer: dst, Tag: tag, Ctx: c.ctx}
	srcW, dstW := p.Rank, c.ranks[dst]
	eng := w.Eng()
	if cs := w.crash; cs != nil {
		if cs.dead[dstW] {
			w.m.deadLetters.Inc()
			req.fail(eng, &PeerDeadError{Rank: dstW, Via: cs.deadVia(dstW)})
			return req
		}
		if cs.isTarget[dstW] {
			cs.watch[dstW] = append(cs.watch[dstW], watchEntry{req: req})
		}
	}

	data := buf
	if buf.Real() {
		cp := make([]byte, buf.N)
		copy(cp, buf.B)
		data = Bytes(cp)
	}

	msg := &message{
		src:         me,
		tag:         tag,
		size:        buf.Len(),
		data:        data,
		eager:       buf.Len() <= w.Pers.EagerThreshold,
		dataArrived: sim.NewSignal(),
	}
	w.Tracer.Record(trace.Event{
		T: float64(p.Now()), Rank: srcW, Kind: trace.KindSend,
		Name: "send", Size: buf.Len(), Peer: dstW,
	})
	if msg.eager {
		w.m.sendsEager.Inc()
	} else {
		w.m.sendsRdv.Inc()
	}
	w.m.sentBytes.Add(float64(buf.Len()))
	w.m.msgSize.Observe(float64(buf.Len()))

	// Data flows of one (src, dst) pair are serialised FIFO: message k's
	// payload enters the wire only after message k-1's has drained.
	startData := func(done func()) {
		eff := w.Pers.Eff(max(msg.size, 1))
		bytes := float64(msg.size) / eff
		key := pairKey{srcW, dstW}
		prev := o.pairTail[key]
		mine := sim.NewSignal()
		o.pairTail[key] = mine
		run := func() {
			f := w.Mach.Net.Start(bytes, w.dataPath(srcW, dstW)...)
			f.Done().OnFire(func() {
				mine.Fire(eng)
				done()
			})
		}
		if prev == nil {
			run()
		} else {
			prev.OnFire(run)
		}
	}

	// Send-side progression work, then envelope latency, then the
	// protocol's data movement.
	ready := sim.NewSignal()
	so := w.Pers.SendOverhead
	if s := w.faults.OverheadScale(srcW); s != 1 {
		so *= s
	}
	ov := w.Mach.CPUWork(srcW, so)
	ov.Done().OnFire(func() {
		eng.Schedule(sim.Time(w.latency(srcW, dstW)), func() { ready.Fire(eng) })
	})

	// Envelopes of one pair are delivered in issue order (non-overtaking).
	key := pairKey{srcW, dstW}
	prevEnv := o.envTail[key]
	mine := sim.NewSignal()
	o.envTail[key] = mine
	gate := sim.NewCounter(eng, 2)
	ready.OnFire(gate.Done)
	if prevEnv == nil {
		gate.Done()
	} else {
		prevEnv.OnFire(gate.Done)
	}
	gate.Signal().OnFire(func() {
		if msg.eager {
			if w.faults.DropsEnabled() || w.crash != nil {
				o.startEagerReliable(msg, req, startData, srcW, dstW)
			} else {
				startData(func() {
					msg.dataArrived.Fire(eng)
					req.Complete(eng)
				})
			}
		} else {
			msg.onMatch = func() {
				// Clear-to-send travels back, then the payload moves.
				eng.Schedule(sim.Time(w.latency(dstW, srcW)), func() {
					startData(func() {
						msg.dataArrived.Fire(eng)
						req.Complete(eng)
					})
				})
			}
		}
		w.deliver(c.ctx, dstW, msg)
		mine.Fire(eng)
	})
	return req
}

// startEagerReliable is the closure form of the reliable eager protocol:
// each attempt may be dropped, an exponentially backed-off RTO resends,
// and the first intact attempt to drain sends the ack that completes the
// request.
func (o *refP2P) startEagerReliable(msg *message, req *Request, startData func(func()), srcW, dstW int) {
	w := o.w
	eng := w.Eng()
	attempt := 0
	acked := false
	var rto sim.Timer
	var try func()
	try = func() {
		if acked || req.err != nil {
			return
		}
		cs := w.crash
		if cs != nil && cs.dead[dstW] {
			rto.Cancel()
			req.fail(eng, &PeerDeadError{Rank: dstW, Via: cs.deadVia(dstW)})
			return
		}
		a := attempt
		attempt++
		if cs != nil && a >= w.sendAttemptCap() {
			rto.Cancel()
			rtos := make([]float64, a)
			for k := range rtos {
				rtos[k] = w.faults.RTO(k)
			}
			req.fail(eng, &PeerUnreachableError{Rank: dstW, Attempts: a, RTOs: rtos})
			w.declareDead(dstW, "retransmit")
			return
		}
		if a > 0 {
			w.m.retransmits.Inc()
		}
		var dropped bool
		if cs != nil && cs.crashed[dstW] {
			dropped = true
		} else if dropped = w.faults.DropEager(float64(eng.Now()), a); dropped {
			w.m.dropsInjected.Inc()
			w.Tracer.Record(trace.Event{
				T: float64(eng.Now()), Rank: srcW, Kind: trace.KindDrop,
				Name: "drop", Size: msg.size, Peer: dstW,
			})
		}
		startData(func() {
			if acked || dropped {
				return
			}
			acked = true
			rto.Cancel()
			msg.dataArrived.Fire(eng)
			eng.Schedule(sim.Time(w.latency(dstW, srcW)), func() { req.Complete(eng) })
		})
		eng.AfterInto(&rto, sim.Time(w.faults.RTO(a)), func() {
			if !acked {
				try()
			}
		})
	}
	try()
}

func (o *refP2P) irecv(c *Comm, p *Proc, buf Buf, src, tag int) *Request {
	w := o.w
	if cs := w.crash; cs != nil && src != AnySource {
		if srcW := c.ranks[src]; cs.dead[srcW] {
			w.m.deadLetters.Inc()
			req := NewRequest()
			req.site = WaitSite{Op: "recv", Peer: src, Tag: tag, Ctx: c.ctx}
			req.fail(w.Eng(), &PeerDeadError{Rank: srcW, Via: cs.deadVia(srcW)})
			return req
		}
	}
	w.m.recvsPosted.Inc()
	r := &recvReq{src: src, tag: tag, buf: buf, req: NewRequest(), comm: c, dstWorld: p.Rank}
	r.req.site = WaitSite{Op: "recv", Peer: src, Tag: tag, Ctx: c.ctx}
	eng := w.Eng()
	// match registers onData once the message is bound (r.m).
	r.onData = func() {
		m := r.m
		ro := w.Pers.RecvOverhead
		if s := w.faults.OverheadScale(r.dstWorld); s != 1 {
			ro *= s
		}
		ov := w.Mach.CPUWork(r.dstWorld, ro)
		ov.Done().OnFire(func() {
			r.buf.Slice(0, m.size).CopyFrom(m.data)
			w.Tracer.Record(trace.Event{
				T: float64(eng.Now()), Rank: r.dstWorld, Kind: trace.KindDeliver,
				Name: "deliver", Size: m.size, Peer: r.comm.ranks[m.src],
			})
			w.m.delivered.Inc()
			w.m.deliveredBytes.Add(float64(m.size))
			r.req.Complete(eng)
		})
	}
	ep := w.endpoint(c.ctx, p.Rank)
	for i, m := range ep.unexpected {
		if matches(r, m) {
			ep.unexpected = removeMsgAt(ep.unexpected, i)
			w.match(r, m)
			return r.req
		}
	}
	ep.posted = append(ep.posted, r)
	if cs := w.crash; cs != nil && src != AnySource {
		if srcW := c.ranks[src]; cs.isTarget[srcW] {
			cs.watch[srcW] = append(cs.watch[srcW], watchEntry{req: r.req, rr: r, ep: ep})
		}
	}
	return r.req
}
