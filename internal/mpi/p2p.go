package mpi

import (
	"fmt"

	"github.com/hanrepro/han/internal/arena"
	"github.com/hanrepro/han/internal/sim"
	"github.com/hanrepro/han/internal/trace"
)

// Wildcards for Irecv.
const (
	AnySource = -1
	AnyTag    = -1
)

type epKey struct {
	ctx int
	dst int // world rank of the receiver
}

// pairKey identifies a directed (sender, receiver) world-rank pair whose
// data flows are serialised FIFO.
type pairKey struct {
	src, dst int
}

// message is an in-flight send as seen by the receiver's matching engine.
type message struct {
	src  int // comm rank of the sender
	tag  int
	size int
	data Buf

	eager       bool
	dataArrived *sim.Signal // payload fully at the receiver
	onMatch     func()      // rendezvous only: start the clear-to-send
	op          *sendOp     // owning pooled record; nil under the test oracle
}

// recvReq is a posted receive awaiting a matching message. Receives are
// pooled (pool.go): they carry persistent completion closures and are
// recycled once the payload has been copied out.
type recvReq struct {
	src, tag int
	buf      Buf
	req      *Request
	comm     *Comm
	dstWorld int

	m        *message // matched message
	onData   func()   // payload arrived: start receive-side overhead
	onOvDone func()   // overhead done: copy out and complete
	slot     arena.Slot
}

// p2pProtocol is a whole P2P implementation: World.oracle's type.
type p2pProtocol interface {
	isend(c *Comm, p *Proc, buf Buf, dst, tag, me int) *Request
	irecv(c *Comm, p *Proc, buf Buf, src, tag int) *Request
}

type endpoint struct {
	posted     []*recvReq
	unexpected []*message
}

func (w *World) endpoint(ctx, dstWorld int) *endpoint {
	k := epKey{ctx, dstWorld}
	ep := w.eps[k]
	if ep == nil {
		ep = &endpoint{}
		w.eps[k] = ep
		if w.crash != nil {
			// Register per rank so a crash can tear the rank's matching
			// state down in creation order (never by ranging w.eps — the
			// maporder invariant).
			w.crash.eps[dstWorld] = append(w.crash.eps[dstWorld], ep)
		}
	}
	return ep
}

func matches(r *recvReq, m *message) bool {
	return (r.src == AnySource || r.src == m.src) && (r.tag == AnyTag || r.tag == m.tag)
}

// removeRecvAt and removeMsgAt shift-remove index i while nil-ing the
// vacated capacity-tail slot — without that, the backing array pins the
// removed (possibly pool-recycled) record until the slot is overwritten.
func removeRecvAt(s []*recvReq, i int) []*recvReq {
	last := len(s) - 1
	copy(s[i:], s[i+1:])
	s[last] = nil
	return s[:last]
}

func removeMsgAt(s []*message, i int) []*message {
	last := len(s) - 1
	copy(s[i:], s[i+1:])
	s[last] = nil
	return s[:last]
}

// Isend starts a non-blocking send of buf to comm rank dst with the given
// tag. The returned request completes when the sender's buffer may be
// reused (eager: payload drained into the network, or acknowledged under
// a drop or crash plan; rendezvous: transfer finished).
func (c *Comm) Isend(p *Proc, buf Buf, dst, tag int) *Request {
	w := c.w
	if dst < 0 || dst >= c.Size() {
		panic(fmt.Sprintf("mpi: Isend to rank %d of %d", dst, c.Size()))
	}
	me := c.Rank(p)
	if me < 0 {
		panic("mpi: Isend by non-member rank")
	}
	if w.oracle != nil {
		return w.oracle.isend(c, p, buf, dst, tag, me)
	}
	srcW, dstW := p.Rank, c.ranks[dst]
	req := w.newRequest(dstW)
	req.site = WaitSite{Op: "send", Peer: dst, Tag: tag, Ctx: c.ctx}
	if w.failIfDead(req, dstW) {
		// Fail fast instead of spending attempts against a rank every
		// survivor knows is gone.
		return req
	}
	w.watch(dstW, watchEntry{req: req})

	// Snapshot real payloads so the sender may reuse its buffer as soon as
	// the request completes, regardless of when the receiver copies.
	data := buf
	if buf.Real() {
		cp := make([]byte, buf.N)
		copy(cp, buf.B)
		data = Bytes(cp)
	}

	op := w.sendPool.Get()
	op.req = req
	op.srcW, op.dstW, op.ctx = srcW, dstW, c.ctx
	op.refs = 2 // sender side + receive side
	op.msg.src, op.msg.tag, op.msg.size = me, tag, buf.Len()
	op.msg.data = data
	op.msg.eager = buf.Len() <= w.Pers.EagerThreshold
	// Eff is a pure function of the size, so evaluating it once here
	// instead of at every wire start is value-identical.
	op.bytes = float64(op.msg.size) / w.Pers.Eff(max(op.msg.size, 1))
	op.pair = w.pair(srcW, dstW)

	w.Tracer.Record(trace.Event{
		T: float64(p.Now()), Rank: srcW, Kind: trace.KindSend,
		Name: "send", Size: buf.Len(), Peer: dstW,
	})
	if op.msg.eager {
		w.m.sendsEager.Inc()
	} else {
		w.m.sendsRdv.Inc()
	}
	w.m.sentBytes.Add(float64(buf.Len()))
	w.m.msgSize.Observe(float64(buf.Len()))

	// Enqueue in issue order now; the envelope is delivered by drainEnv
	// once the send overhead + latency have elapsed AND every earlier
	// envelope of the pair is out (non-overtaking).
	op.pair.envQ.push(op)

	// An active straggler burst on the sender scales the progression work.
	so := w.Pers.SendOverhead
	if s := w.faults.OverheadScale(srcW); s != 1 {
		so *= s
	}
	ov := w.Mach.CPUWork(srcW, so)
	ov.Done().OnFire(op.onSendOvDone)
	return req
}

// Irecv posts a non-blocking receive into buf from comm rank src (or
// AnySource) with the given tag (or AnyTag). The request completes once a
// matching payload has fully arrived and been copied into buf.
func (c *Comm) Irecv(p *Proc, buf Buf, src, tag int) *Request {
	if src != AnySource && (src < 0 || src >= c.Size()) {
		panic(fmt.Sprintf("mpi: Irecv from rank %d of %d", src, c.Size()))
	}
	if c.Rank(p) < 0 {
		panic("mpi: Irecv by non-member rank")
	}
	w := c.w
	if w.oracle != nil {
		return w.oracle.irecv(c, p, buf, src, tag)
	}
	srcW := AnySource
	if src != AnySource {
		srcW = c.ranks[src]
	}
	req := w.newRequest(srcW)
	req.site = WaitSite{Op: "recv", Peer: src, Tag: tag, Ctx: c.ctx}
	if w.failIfDead(req, srcW) {
		// Nothing will ever arrive from a declared-dead peer.
		return req
	}
	w.m.recvsPosted.Inc()
	r := w.recvPool.Get()
	r.src, r.tag, r.buf, r.comm, r.dstWorld = src, tag, buf, c, p.Rank
	r.req = req
	ep := w.endpoint(c.ctx, p.Rank)
	for i, m := range ep.unexpected {
		if matches(r, m) {
			ep.unexpected = removeMsgAt(ep.unexpected, i)
			w.match(r, m)
			return req
		}
	}
	ep.posted = append(ep.posted, r)
	w.watch(srcW, watchEntry{req: req, rr: r, ep: ep})
	return req
}

// deliver hands an arrived envelope to the receiver's matching engine.
func (w *World) deliver(ctx, dstWorld int, m *message) {
	if cs := w.crash; cs != nil && cs.crashed[dstWorld] {
		// Dead letter: the receiver crashed before this envelope arrived.
		w.m.deadLetters.Inc()
		return
	}
	ep := w.endpoint(ctx, dstWorld)
	for i, r := range ep.posted {
		if matches(r, m) {
			ep.posted = removeRecvAt(ep.posted, i)
			w.match(r, m)
			return
		}
	}
	ep.unexpected = append(ep.unexpected, m)
	w.m.unexpected.Inc()
	if !m.eager {
		// The clear-to-send cannot go back until a receive is posted: the
		// transfer is stalled on the receiver.
		w.m.rdvStalls.Inc()
	}
}

// match binds a posted receive to a message and finishes the receive once
// the payload has arrived and the receive-side progression work is done.
func (w *World) match(r *recvReq, m *message) {
	if m.size > r.buf.N {
		panic(fmt.Sprintf("mpi: message of %d bytes overflows %d-byte receive buffer (src=%d tag=%d)", m.size, r.buf.N, m.src, m.tag))
	}
	if !m.eager && m.onMatch != nil {
		m.onMatch()
	}
	r.m = m
	m.dataArrived.OnFire(r.onData)
}

// Send is the blocking form of Isend.
func (c *Comm) Send(p *Proc, buf Buf, dst, tag int) {
	p.Wait(c.Isend(p, buf, dst, tag))
}

// Recv is the blocking form of Irecv.
func (c *Comm) Recv(p *Proc, buf Buf, src, tag int) {
	p.Wait(c.Irecv(p, buf, src, tag))
}

// SendRecv exchanges messages with possibly different peers, progressing
// both directions concurrently.
func (c *Comm) SendRecv(p *Proc, sbuf Buf, dst, stag int, rbuf Buf, src, rtag int) {
	sreq := c.Isend(p, sbuf, dst, stag)
	rreq := c.Irecv(p, rbuf, src, rtag)
	p.Wait(sreq, rreq)
}
