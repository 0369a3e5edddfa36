package mpi

import (
	"github.com/hanrepro/han/internal/arena"
	"github.com/hanrepro/han/internal/flow"
	"github.com/hanrepro/han/internal/sim"
	"github.com/hanrepro/han/internal/trace"
)

// This file implements the P2P protocol on arena-pooled records. Each
// send is a pooled sendOp whose persistent closures, created once per
// pool slot, drive the protocol; each directed pair of ranks has a
// persistent pairState holding the cached data path and two FIFO queues:
// the wire queue (one payload on the wire at a time, in program order)
// and the envelope queue (MPI's non-overtaking guarantee). Receives are
// pooled recvReqs.
//
// Under a drop or crash plan eager sends run the reliable protocol
// (startReliable): every transmission attempt joins the pair's wire queue
// like any other payload, a retransmission timeout with exponential
// backoff resends, and the first intact attempt to drain sends back the
// ack that completes the request. With crashes armed, operations
// addressed at a crash target take heap requests (newRequest, crash.go).
// A record that a crash strands — a dead letter, a cleared endpoint, an
// unlinked receive — is left to the garbage collector: it goes back to
// its pool only when nothing can reach it any more.
//
// The reference implementation the differential suites hold this one to
// lives in oracle_test.go. Both perform every engine-visible action —
// flow start, Schedule, signal fire, latency/RNG draw — at the same call
// point in the same order, so their sim bits are identical.

// sendOp is the pooled per-send record: the message, the wire/envelope
// queue linkage, and the persistent closures that drive the protocol. It
// is created by Isend and released when refs drops to zero. refs
// counts the receive side (payload copied out) and the sender side
// (envelope out and, outside the reliable protocol, payload drained);
// the reliable protocol adds one per attempt on the wire, one for a
// pending RTO and one for a pending ack.
type sendOp struct {
	w    *World
	msg  message
	req  *Request
	pair *pairState

	srcW, dstW int
	ctx        int
	bytes      float64 // wire bytes (size / protocol efficiency)
	envReady   bool    // own envelope latency has elapsed
	reliable   bool    // this send runs the reliable protocol (rel)
	refs       int

	dataSig sim.Signal // backs msg.dataArrived

	// rel is the reliable protocol's state, carved on the op's first
	// reliable send and kept across reuse, so clean runs never pay for it.
	rel *reliableState

	// Persistent closures, created once in the pool's Init hook.
	onSendOvDone func() // send-side progression work finished
	onEnvLat     func() // envelope latency elapsed
	onMatchFn    func() // rendezvous matched: issue the clear-to-send
	onCTS        func() // clear-to-send arrived back at the sender
	onWireDone   func() // payload drained from the wire

	slot arena.Slot
}

// reliableState is a sendOp's reliable eager protocol state
// (startReliable) with its persistent closures.
type reliableState struct {
	acked    bool      // an intact attempt drained
	attempt  int       // transmissions issued
	drops    []bool    // per attempt on the wire, FIFO: was it dropped
	dropHead int       // oldest attempt still on the wire
	rto      sim.Timer // holds a ref while Active; persists across reuse
	onRTO    func()    // retransmission timeout expired
	onAck    func()    // ack arrived back at the sender
}

// opQueue is a FIFO of sendOps with O(1) push/pop and a reusable backing
// array: a head index avoids shifting, and the array rewinds once
// drained, so a steady-state queue never reallocates or pins a released
// op.
type opQueue struct {
	q    []*sendOp
	head int
}

func (q *opQueue) empty() bool    { return q.head == len(q.q) }
func (q *opQueue) push(o *sendOp) { q.q = append(q.q, o) }
func (q *opQueue) peek() *sendOp  { return q.q[q.head] }

func (q *opQueue) pop() *sendOp {
	o := q.q[q.head]
	q.q[q.head] = nil
	q.head++
	if q.head == len(q.q) {
		q.q = q.q[:0]
		q.head = 0
	}
	return o
}

// pairState is the persistent per-directed-pair state: the cached data
// path, the wire FIFO and the envelope FIFO. One payload is on a pair's
// wire at a time, in program order, as on a real per-peer connection:
// otherwise concurrent pipelined segments would fair-share the link and
// complete together, which no MPI transport does. Envelopes are delivered
// in issue order — MPI's non-overtaking guarantee — even when the send
// overheads of back-to-back sends finish together.
type pairState struct {
	path     []*flow.Resource // cached dataPath(src, dst)
	wireBusy bool             // a payload is on the wire
	wireQ    opQueue          // payloads waiting for the wire
	envQ     opQueue          // sends in issue order, delivered FIFO
}

func (w *World) pair(srcW, dstW int) *pairState {
	k := pairKey{srcW, dstW}
	ps := w.pairs[k]
	if ps == nil {
		ps = &pairState{path: w.dataPath(srcW, dstW)}
		w.pairs[k] = ps
	}
	return ps
}

func (w *World) initPools() {
	eng := w.Eng()
	w.pairs = make(map[pairKey]*pairState)
	w.reqPool = arena.NewPool(arena.Options[Request]{
		Name: "mpi.request",
		Init: func(r *Request) { r.pooled = true },
		Reset: func(r *Request) {
			r.doneSig.Reset()
			r.site = WaitSite{}
			r.err = nil
		},
		Slot: func(r *Request) *arena.Slot { return &r.slot },
	})
	w.sendPool = arena.NewPool(arena.Options[sendOp]{
		Name: "mpi.sendOp",
		Init: func(op *sendOp) {
			op.w = w
			op.msg.dataArrived = &op.dataSig
			op.msg.op = op
			op.onSendOvDone = func() {
				// Envelope latency (and its jitter, if any) is sampled when
				// the send-side progression work finishes.
				eng.Schedule(sim.Time(w.latency(op.srcW, op.dstW)), op.onEnvLat)
			}
			op.onEnvLat = func() {
				op.envReady = true
				w.drainEnv(op.pair)
			}
			op.onMatchFn = func() {
				// Clear-to-send travels back, then the payload moves.
				eng.Schedule(sim.Time(w.latency(op.dstW, op.srcW)), op.onCTS)
			}
			op.onCTS = func() { op.pair.startData(w, op) }
			op.onWireDone = func() { w.wireDrained(op) }
		},
		Reset: func(op *sendOp) {
			op.msg.src, op.msg.tag, op.msg.size = 0, 0, 0
			op.msg.data = Buf{}
			op.msg.eager = false
			op.msg.onMatch = nil
			op.dataSig.Reset()
			op.req = nil
			op.pair = nil
			op.srcW, op.dstW, op.ctx = 0, 0, 0
			op.bytes = 0
			op.envReady = false
			op.refs = 0
			op.reliable = false
			if rel := op.rel; rel != nil {
				// Every attempt drained before the last ref went, so the
				// drop FIFO is already rewound.
				rel.acked, rel.attempt = false, 0
			}
		},
		Slot: func(op *sendOp) *arena.Slot { return &op.slot },
	})
	w.recvPool = arena.NewPool(arena.Options[recvReq]{
		Name: "mpi.recvReq",
		Init: func(r *recvReq) {
			r.onData = func() {
				ro := w.Pers.RecvOverhead
				if s := w.faults.OverheadScale(r.dstWorld); s != 1 {
					ro *= s
				}
				ov := w.Mach.CPUWork(r.dstWorld, ro)
				ov.Done().OnFire(r.onOvDone)
			}
			r.onOvDone = func() {
				m := r.m
				r.buf.Slice(0, m.size).CopyFrom(m.data)
				w.Tracer.Record(trace.Event{
					T: float64(eng.Now()), Rank: r.dstWorld, Kind: trace.KindDeliver,
					Name: "deliver", Size: m.size, Peer: r.comm.ranks[m.src],
				})
				w.m.delivered.Inc()
				w.m.deliveredBytes.Add(float64(m.size))
				r.req.Complete(eng)
				// r is dead from here on: nothing holds it (it left the
				// posted list at match time) and its request has fired.
				op := m.op
				w.recvPool.Put(r)
				w.decref(op)
			}
		},
		Reset: func(r *recvReq) {
			r.src, r.tag = 0, 0
			r.buf = Buf{}
			r.req = nil
			r.comm = nil
			r.dstWorld = 0
			r.m = nil
		},
		Slot: func(r *recvReq) *arena.Slot { return &r.slot },
	})
}

func (w *World) decref(op *sendOp) {
	op.refs--
	if op.refs == 0 {
		w.sendPool.Put(op)
	}
}

// drainEnv delivers every head-of-queue envelope whose latency has
// elapsed: a delivery unblocks the next envelope, which (if its latency
// already elapsed) is delivered immediately after — same order, same
// instant.
func (w *World) drainEnv(ps *pairState) {
	for !ps.envQ.empty() {
		op := ps.envQ.peek()
		if !op.envReady {
			return
		}
		ps.envQ.pop()
		w.envelopeArrived(op)
	}
}

// envelopeArrived starts (or arms) the data movement, then hands the
// envelope to the matching engine. For eager sends the wire is engaged
// before delivery.
func (w *World) envelopeArrived(op *sendOp) {
	if op.msg.eager {
		if w.faults.DropsEnabled() || w.crash != nil {
			w.startReliable(op)
		} else {
			op.pair.startData(w, op)
		}
	} else {
		op.msg.onMatch = op.onMatchFn
	}
	w.deliver(op.ctx, op.dstW, &op.msg)
}

// startData engages the pair's wire for op's payload, or queues it FIFO
// behind the payload currently draining.
func (ps *pairState) startData(w *World, op *sendOp) {
	if ps.wireBusy {
		ps.wireQ.push(op)
		return
	}
	ps.wireBusy = true
	w.runWire(op)
}

func (w *World) runWire(op *sendOp) {
	f := w.Mach.Net.StartOn(op.bytes, op.pair.path)
	f.Done().OnFire(op.onWireDone)
}

// wireDrained retires a drained payload: start the next queued payload
// first (event creation order: the wire moves on before the sender
// reacts), then mark the payload arrived and complete the send request.
func (w *World) wireDrained(op *sendOp) {
	ps := op.pair
	if !ps.wireQ.empty() {
		w.runWire(ps.wireQ.pop())
	} else {
		ps.wireBusy = false
	}
	if op.reliable {
		w.attemptDrained(op)
		return
	}
	eng := w.Eng()
	op.msg.dataArrived.Fire(eng)
	op.req.Complete(eng)
	w.decref(op)
}

// startReliable moves an eager payload under a drop or crash plan: each
// transmission attempt may be lost (the injector decides, drawing from
// the world's seeded RNG), so the sender arms a retransmission timeout
// with exponential backoff and keeps resending until one attempt drains
// intact, at which point an ack travels back and completes the send
// request. Dropped payloads still charge the wire — the bytes moved
// before vanishing. The injector caps consecutive drops per message,
// bounding worst-case latency; with crashes armed, the attempt cap
// escalates to a peer-dead verdict (crash.go).
func (w *World) startReliable(op *sendOp) {
	if op.rel == nil {
		w.carveReliable(op)
	}
	op.reliable = true
	w.transmit(op)
	// Attempts, the RTO and the ack hold their own refs from here on.
	w.decref(op)
}

// carveReliable gives op its reliable-protocol state and persistent
// closures.
func (w *World) carveReliable(op *sendOp) {
	eng := w.Eng()
	rel := &reliableState{}
	rel.onRTO = func() {
		if !rel.acked {
			w.transmit(op)
		}
		w.decref(op)
	}
	rel.onAck = func() {
		if op.req != nil {
			op.req.Complete(eng)
		}
		w.decref(op)
	}
	op.rel = rel
}

// transmit issues the next attempt of a reliable send and arms its RTO,
// or ends the protocol with a failed request when the peer is dead or
// every bounded attempt went unacked.
func (w *World) transmit(op *sendOp) {
	rel := op.rel
	if rel.acked || op.req == nil || op.req.err != nil {
		return
	}
	eng := w.Eng()
	dstW := op.dstW
	cs := w.crash
	if cs != nil && cs.dead[dstW] {
		// Declared dead while we were retransmitting: stop resending.
		w.cancelRTO(op)
		w.failSend(op, &PeerDeadError{Rank: dstW, Via: cs.deadVia(dstW)})
		return
	}
	a := rel.attempt
	rel.attempt++
	if cs != nil && a >= w.sendAttemptCap() {
		// Retransmit escalation: every bounded attempt went unacked, so
		// the sender renders its own peer-dead verdict.
		w.cancelRTO(op)
		rtos := make([]float64, a)
		for k := range rtos {
			rtos[k] = w.faults.RTO(k)
		}
		w.failSend(op, &PeerUnreachableError{Rank: dstW, Attempts: a, RTOs: rtos})
		w.declareDead(dstW, "retransmit")
		return
	}
	if a > 0 {
		w.m.retransmits.Inc()
	}
	var dropped bool
	if cs != nil && cs.crashed[dstW] {
		// The receiver's NIC is gone: the payload vanishes unacked,
		// without drawing plan randomness.
		dropped = true
	} else if dropped = w.faults.DropEager(float64(eng.Now()), a); dropped {
		w.m.dropsInjected.Inc()
		w.Tracer.Record(trace.Event{
			T: float64(eng.Now()), Rank: op.srcW, Kind: trace.KindDrop,
			Name: "drop", Size: op.msg.size, Peer: dstW,
		})
	}
	rel.drops = append(rel.drops, dropped)
	op.refs++
	op.pair.startData(w, op)
	// Arm the retransmission timeout for this attempt. A retransmit issued
	// while an earlier intact attempt is still queued is spurious but
	// harmless: the late duplicate sees acked and is ignored.
	op.refs++
	eng.AfterInto(&rel.rto, sim.Time(w.faults.RTO(a)), rel.onRTO)
}

// attemptDrained retires the oldest attempt of a reliable send still on
// the wire. The first intact one marks the payload arrived and sends the
// ack back; the ack completes the request one envelope latency later.
func (w *World) attemptDrained(op *sendOp) {
	rel := op.rel
	dropped := rel.drops[rel.dropHead]
	rel.dropHead++
	if rel.dropHead == len(rel.drops) {
		rel.drops = rel.drops[:0]
		rel.dropHead = 0
	}
	if !rel.acked && !dropped {
		rel.acked = true
		w.cancelRTO(op)
		eng := w.Eng()
		op.msg.dataArrived.Fire(eng)
		op.refs++
		eng.Schedule(sim.Time(w.latency(op.dstW, op.srcW)), rel.onAck)
	}
	w.decref(op)
}

// cancelRTO disarms a pending retransmission timeout and drops its ref
// (a timer is not Active inside its own callback). Callers hold another
// ref, so op survives.
func (w *World) cancelRTO(op *sendOp) {
	if rto := &op.rel.rto; rto.Active() {
		rto.Cancel()
		w.decref(op)
	}
}

// failSend fails a reliable send's request and detaches it: its owner may
// now wait on it and recycle it, so a late ack must not touch it.
func (w *World) failSend(op *sendOp, err error) {
	op.req.fail(w.Eng(), err)
	op.req = nil
}

// release returns a pooled request once its completion has been
// observed by Proc.Wait. Heap requests (NewRequest) pass through
// untouched.
func (w *World) release(r *Request) {
	if r.pooled {
		w.reqPool.Put(r)
	}
}
