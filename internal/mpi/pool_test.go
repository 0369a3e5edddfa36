package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/fault"
	"github.com/hanrepro/han/internal/sim"
)

// This file holds the pooled-P2P differential and allocation-regression
// suites: the pooled protocol (pool.go) must reproduce the reference
// oracle (oracle_test.go) bit-for-bit, and its steady state must not
// allocate.

// churnResult is everything a churn run exposes to the differential
// suites: the exact final-clock bits, the engine's error (a crash plan can
// wedge survivors on wildcard receives), the failure detector's reports,
// and every request's Err string per rank, in completion order.
type churnResult struct {
	clock  uint64
	runErr string
	dead   string
	errs   [][]string
}

// runP2PChurn drives a seeded randomized P2P workload — mixed
// eager/rendezvous sizes, wildcard receives, out-of-order tags (so both
// the posted and the unexpected queue are exercised), zero-size
// messages, and paired exchanges — on the pooled protocol or, with
// pooled false, on the reference oracle. Every round enters a
// (watchdog-free) collective boundary so crash-on-Nth-collective plans
// fire.
func runP2PChurn(t *testing.T, pooled bool, seedv int64, plan *fault.Plan, jitter float64) churnResult {
	t.Helper()
	eng := sim.New()
	spec := cluster.Mini(4, 4) // 16 ranks, 4 nodes: intra- and inter-node traffic
	pers := OpenMPI()
	pers.Jitter = jitter // nonzero forces RNG draws at every latency sample
	w := NewWorld(cluster.NewMachine(eng, spec), pers)
	if !pooled {
		useReferenceP2P(w)
	}
	w.Seed(seedv)
	if plan != nil {
		w.AttachFaults(*plan)
	}
	n := w.Size()
	rounds := 8
	errs := make([][]string, n)
	w.Start(func(p *Proc) {
		c := p.W.World()
		me := c.Rank(p)
		// wait records each request's verdict before Proc.Wait recycles
		// it: Err is only readable until then on a pooled request.
		wait := func(reqs ...*Request) {
			for _, r := range reqs {
				p.Sim.WaitAt(r.Done(), &r.site)
				msg := "ok"
				if err := r.Err(); err != nil {
					msg = err.Error()
				}
				errs[me] = append(errs[me], msg)
			}
			p.Wait(reqs...)
		}
		rng := rand.New(rand.NewSource(seedv*1000 + int64(me)))
		ringRight, ringLeft := (me+1)%n, (me+n-1)%n
		big := Phantom(3 * pers.EagerThreshold)
		for round := 0; round < rounds; round++ {
			end := p.W.CollBegin(p.Rank, c, "churn")
			if p.Sim.Dying() {
				p.Sim.Exit()
			}
			right := (me + 1 + round) % n
			left := (me + n - 1 - round%n) % n
			size := rng.Intn(3 * pers.EagerThreshold) // spans both protocols
			if rng.Intn(5) == 0 {
				size = 0
			}
			switch round % 3 {
			case 0:
				// Shifting ring exchange, receive from a wildcard source.
				wait(c.Isend(p, Phantom(size), right, round), c.Irecv(p, big, AnySource, round))
			case 1:
				// Out-of-order tags on a fixed ring (stride 1, so even
				// ranks pair with odd ranks and the blocking phases below
				// cannot cycle).
				if me%2 == 0 {
					wait(c.Isend(p, Phantom(size), ringRight, 100+round), c.Isend(p, Phantom(size/2), ringRight, 200+round))
					wait(c.Irecv(p, big, ringLeft, 300+round))
					wait(c.Irecv(p, big, ringLeft, 400+round))
				} else {
					// Post the later tag first to force an unexpected
					// message on this rank.
					wait(c.Irecv(p, big, ringLeft, 200+round), c.Irecv(p, big, ringLeft, 100+round))
					wait(c.Isend(p, Phantom(size), ringRight, 300+round))
					wait(c.Isend(p, Phantom(size/4), ringRight, 400+round))
				}
			default:
				wait(c.Isend(p, Phantom(size), right, round), c.Irecv(p, big, left, round))
			}
			end()
		}
		// Wire backlog: a large rendezvous payload on the wire ahead of
		// eager sends to the same peer outlasts the retransmission
		// timeout, so several attempts of one reliable send queue on the
		// pair's wire at once.
		huge := Phantom(4 << 20)
		if me%2 == 0 {
			a := c.Isend(p, huge, ringRight, 500)
			p.Sim.Sleep(20e-6) // let the clear-to-send put the payload on the wire
			wait(a, c.Isend(p, Phantom(64), ringRight, 501), c.Isend(p, Phantom(pers.EagerThreshold), ringRight, 502))
		} else {
			wait(c.Irecv(p, huge, ringLeft, 500), c.Irecv(p, big, ringLeft, 501), c.Irecv(p, big, ringLeft, 502))
		}
	})
	var res churnResult
	if err := eng.Run(); err != nil {
		if plan == nil || !plan.HasCrashes() {
			t.Fatalf("pooled=%v seed=%d: %v", pooled, seedv, err)
		}
		res.runErr = err.Error()
	}
	res.clock = math.Float64bits(float64(eng.Now()))
	res.dead = fmt.Sprint(w.DeadReports())
	res.errs = errs
	return res
}

// diffChurn reports the first difference between a pooled and a
// reference churn run, or "" when they agree exactly.
func diffChurn(pooled, ref churnResult) string {
	switch {
	case pooled.clock != ref.clock:
		return fmt.Sprintf("final clock differs: pooled %016x vs reference %016x", pooled.clock, ref.clock)
	case pooled.runErr != ref.runErr:
		return fmt.Sprintf("run error differs:\n pooled:    %s\n reference: %s", pooled.runErr, ref.runErr)
	case pooled.dead != ref.dead:
		return fmt.Sprintf("dead reports differ: pooled %s vs reference %s", pooled.dead, ref.dead)
	}
	for r := range pooled.errs {
		if fmt.Sprint(pooled.errs[r]) != fmt.Sprint(ref.errs[r]) {
			return fmt.Sprintf("rank %d request errors differ:\n pooled:    %v\n reference: %v", r, pooled.errs[r], ref.errs[r])
		}
	}
	return ""
}

// The pooled P2P path must reproduce the reference oracle to the bit
// across seeds and jittered latencies (which pins the RNG draw points).
func TestDifferentialPooledVsReferenceP2P(t *testing.T) {
	for seedv := int64(1); seedv <= 10; seedv++ {
		for _, jitter := range []float64{0, 0.1} {
			pooled := runP2PChurn(t, true, seedv, nil, jitter)
			ref := runP2PChurn(t, false, seedv, nil, jitter)
			if d := diffChurn(pooled, ref); d != "" {
				t.Fatalf("seed %d jitter %v: %s", seedv, jitter, d)
			}
		}
	}
}

// Same differential under fault plans. Stragglers and flaps scale
// overheads and capacities; drops run the reliable eager protocol; the
// crash builtins add failure detection, dead letters, fail-fast and
// watched requests. Beyond the clock, crash runs must agree on the
// engine's error, the dead reports and every request's verdict.
func TestDifferentialPooledVsReferenceP2PFaults(t *testing.T) {
	for _, name := range []string{"stragglers", "flaps", "drops", "crash-rank", "crash-node", "crash-coll"} {
		plan, err := fault.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		for seedv := int64(1); seedv <= 5; seedv++ {
			pooled := runP2PChurn(t, true, seedv, &plan, 0.05)
			ref := runP2PChurn(t, false, seedv, &plan, 0.05)
			if d := diffChurn(pooled, ref); d != "" {
				t.Fatalf("plan %s seed %d: %s", name, seedv, d)
			}
		}
	}
}

// Payload correctness through the pooled path: real buffers must arrive
// byte-for-byte, in both protocols, including through the unexpected
// queue.
func TestPooledP2PDeliversRealPayloads(t *testing.T) {
	eng := sim.New()
	pers := OpenMPI()
	w := NewWorld(cluster.NewMachine(eng, cluster.Mini(2, 2)), pers)
	sizes := []int{1, pers.EagerThreshold, pers.EagerThreshold + 1, 64 << 10}
	got := make([][]byte, len(sizes))
	w.Start(func(p *Proc) {
		c := p.W.World()
		switch c.Rank(p) {
		case 0:
			// All sends in flight at once: the receiver drains them in
			// reverse, so rendezvous must match through the unexpected
			// queue without blocking earlier sends.
			reqs := make([]*Request, len(sizes))
			for i, sz := range sizes {
				buf := make([]byte, sz)
				for j := range buf {
					buf[j] = byte(i + j)
				}
				reqs[i] = c.Isend(p, Bytes(buf), 1, i)
			}
			p.Wait(reqs...)
		case 1:
			// Receive in reverse tag order so early sends sit unexpected.
			for i := len(sizes) - 1; i >= 0; i-- {
				buf := make([]byte, sizes[i])
				c.Recv(p, Bytes(buf), 0, i)
				got[i] = buf
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, buf := range got {
		for j, b := range buf {
			if b != byte(i+j) {
				t.Fatalf("size %d: byte %d corrupted: got %d want %d", sizes[i], j, b, byte(i+j))
			}
		}
	}
}

// Steady-state pooled P2P must not allocate: after a warmup that carves
// the slabs and grows every scratch slice, whole ping-pong rounds run
// allocation-free — also under the drops plan, where eager sends run the
// reliable protocol (retransmission timers, acks, dropped attempts on the
// wire) on the same pooled records. Measured with the runtime's exact
// malloc counter from inside the simulation.
func TestPooledP2PSteadyStateAllocs(t *testing.T) {
	drops, err := fault.Builtin("drops")
	if err != nil {
		t.Fatal(err)
	}
	t.Run("clean", func(t *testing.T) { checkSteadyStateAllocs(t, nil) })
	t.Run("drops", func(t *testing.T) { checkSteadyStateAllocs(t, &drops) })
}

func checkSteadyStateAllocs(t *testing.T, plan *fault.Plan) {
	eng := sim.New()
	w := NewWorld(cluster.NewMachine(eng, cluster.Mini(2, 2)), OpenMPI())
	if plan != nil {
		w.AttachFaults(*plan)
	}
	const warmup, measured = 200, 200
	var mallocs uint64
	w.Start(func(p *Proc) {
		c := p.W.World()
		me := c.Rank(p)
		if me > 1 {
			return
		}
		peer := 1 - me
		var before runtime.MemStats
		for i := 0; i < warmup+measured; i++ {
			if me == 0 && i == warmup {
				runtime.ReadMemStats(&before)
			}
			// Mix both protocols and both directions each round.
			small, big := Phantom(64), Phantom(256<<10)
			if me == 0 {
				c.Send(p, small, peer, 1)
				c.Recv(p, big, peer, 2)
			} else {
				c.Recv(p, small, peer, 1)
				c.Send(p, big, peer, 2)
			}
		}
		if me == 0 {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			mallocs = after.Mallocs - before.Mallocs
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// ReadMemStats itself and test-harness background activity cost a few
	// mallocs; per-round cost must still be indistinguishable from zero.
	perRound := float64(mallocs) / float64(measured)
	t.Logf("%.3f mallocs per ping-pong round (%d total)", perRound, mallocs)
	if perRound >= 1 {
		t.Fatalf("steady-state p2p averages %.2f mallocs per ping-pong round (%d total), want < 1", perRound, mallocs)
	}
}
