package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/hanrepro/han/internal/autotune"
	"github.com/hanrepro/han/internal/bench"
	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/han"
	"github.com/hanrepro/han/internal/serve"
)

// The hand_tcp workload: an in-process decision server with default
// Options behind a 127.0.0.1 TCP listener, queried over two wire
// connections while a writer republishes one key 100 times a second,
// alternating between two tables that decide differently.
const (
	handConns    = 2                     // wire connections, one load goroutine each
	handRate     = 20000                 // phase-2 open-loop queries per second, all connections
	handBatch    = 10000                 // closed-loop decisions per timed batch on one connection
	handMixLen   = 1 << 16               // queries in the seeded mix
	republish    = 10 * time.Millisecond // writer period: 100 publishes a second
	flipCluster  = "shaheen"             // the key the writer republishes
	flipKind     = coll.Bcast
	maxFailNotes = 5 // failed replies described on stderr per run
	// handSetupReps is the number of set-ups whose median is setup_s. A
	// set-up takes a few hundred microseconds and the first few in a process
	// run slower, so it takes many for the median to settle.
	handSetupReps = 200
)

var handKinds = []coll.Kind{coll.Bcast, coll.Allreduce}

// handSizes is the 64-size query mix: sixteen power-of-two bases from
// 1 KiB to 32 MiB, each with four quarter steps, topping out at 56 MiB.
// Most sizes fall between table entries and take the interpolation path.
func handSizes() []int {
	sizes := make([]int, 64)
	for i := range sizes {
		base := 1024 << (uint(i) / 4)
		sizes[i] = base + base/4*(i%4)
	}
	return sizes
}

// syntheticTable builds an untuned table for spec from HAN's default
// decision, one entry per (kind, IMB size), the way hanbench -serve does.
// flip swaps the intra-node module of every entry, giving a table that
// decides differently for every query.
func syntheticTable(spec cluster.Spec, kinds []coll.Kind, flip bool) *autotune.Table {
	t := &autotune.Table{Machine: spec.Name, Method: "default-decision"}
	for _, k := range kinds {
		for _, m := range append(bench.SmallSizes(), bench.LargeSizes()...) {
			cfg := han.DefaultDecision(k, m)
			if flip {
				cfg.SMod = map[string]string{"sm": "solo", "solo": "sm"}[cfg.SMod]
			}
			t.Entries = append(t.Entries, autotune.Entry{
				In:  autotune.Input{N: spec.Nodes, P: spec.PPN, M: m, T: k},
				Cfg: cfg,
			})
		}
	}
	return t
}

// handTables builds the served tables: one per preset machine covering
// both kinds, and the flipped table the writer alternates with.
func handTables() (map[string]*autotune.Table, *autotune.Table, error) {
	tables := map[string]*autotune.Table{}
	for _, name := range cluster.PresetNames() {
		spec, err := cluster.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		tables[name] = syntheticTable(spec, handKinds, false)
	}
	spec, err := cluster.ByName(flipCluster)
	if err != nil {
		return nil, nil, err
	}
	return tables, syntheticTable(spec, []coll.Kind{flipKind}, true), nil
}

// handPoint is one distinct query with the decisions the published tables
// allow for it.
type handPoint struct {
	cluster string
	kind    coll.Kind
	m       int
	allowed []han.Config
}

func (p *handPoint) ok(cfg han.Config) bool {
	for _, a := range p.allowed {
		if cfg == a {
			return true
		}
	}
	return false
}

// handQueries returns the distinct queries with their allowed decisions,
// computed from tables built apart from the served ones, and the seeded
// mix of indexes into them that the load walks.
func handQueries(seed int64) ([]handPoint, []uint16, error) {
	tables, flipped, err := handTables()
	if err != nil {
		return nil, nil, err
	}
	var points []handPoint
	for _, name := range cluster.PresetNames() {
		for _, k := range handKinds {
			for _, m := range handSizes() {
				p := handPoint{cluster: name, kind: k, m: m, allowed: []han.Config{tables[name].Decide(k, m)}}
				if name == flipCluster && k == flipKind {
					p.allowed = append(p.allowed, flipped.Decide(k, m))
				}
				points = append(points, p)
			}
		}
	}
	mix := make([]uint16, handMixLen)
	for i := range mix {
		mix[i] = uint16(splitmix64(uint64(seed)<<20+uint64(i)) % uint64(len(points)))
	}
	return points, mix, nil
}

// splitmix64 is the SplitMix64 output function: a fixed integer mixer, so
// a seed fully determines the query mix.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// handServer is a running server with its listener and client connections.
type handServer struct {
	srv     *serve.Server
	stop    func()
	clients []*serve.Client
	flipA   *autotune.Table // the flip key's table as preloaded
	flipB   *autotune.Table // the table the writer alternates with
}

// startHandServer does the workload's set-up: build and publish the
// tables, listen on a loopback port, start serving and dial the clients.
func startHandServer() (*handServer, error) {
	tables, flipped, err := handTables()
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(serve.Options{})
	for _, name := range cluster.PresetNames() {
		srv.PublishTable(name, tables[name])
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := &handServer{srv: srv, stop: srv.Start(l), flipA: tables[flipCluster], flipB: flipped}
	for i := 0; i < handConns; i++ {
		cl, err := serve.Dial("tcp", l.Addr().String())
		if err != nil {
			h.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		h.clients = append(h.clients, cl)
	}
	return h, nil
}

func (h *handServer) close() {
	for _, cl := range h.clients {
		cl.Close()
	}
	h.stop()
}

// startWriter republishes the flip key every republish period, alternating
// between the flipped and the original table, until the returned stop
// function is called; stop returns once the writer has exited.
func (h *handServer) startWriter() (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(republish)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			case <-tick.C:
				t := h.flipB
				if i%2 == 1 {
					t = h.flipA
				}
				h.srv.Publish(flipCluster, flipKind, t)
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// loadResult is what one load phase saw.
type loadResult struct {
	decisions, failed int64
	elapsed           time.Duration
	batches           []float64 // closed loop: seconds per handBatch decisions
	// Open loop, per slot in due-time order: seconds from the due time
	// to the send, and from the send to the reply. float32 keeps the
	// samples' footprint out of the memory high-water.
	late, svc []float32
}

// fromDue returns each open-loop query's latency from its due time.
func (l loadResult) fromDue() []float64 {
	out := make([]float64, len(l.late))
	for i := range out {
		out[i] = float64(l.late[i]) + float64(l.svc[i])
	}
	return out
}

func float64s(xs []float32) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// failNotes rate-limits failure descriptions across load goroutines.
var failNotes atomic.Int64

func noteFailure(p *handPoint, cfg han.Config, err error) {
	if failNotes.Add(1) <= maxFailNotes {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: hand_tcp %s/%s m=%d: got %+v err %v, allowed %+v\n",
			p.cluster, p.kind, p.m, cfg, err, p.allowed)
	}
}

// closedLoop runs phase 1: each connection sends its next query as soon as
// the previous reply lands, in timed batches, until d has passed.
func (h *handServer) closedLoop(points []handPoint, mix []uint16, d time.Duration) loadResult {
	outs := make([]loadResult, len(h.clients))
	start := time.Now()
	var wg sync.WaitGroup
	for c := range h.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out, cl := &outs[c], h.clients[c]
			pos := c * len(mix) / len(h.clients)
			for time.Since(start) < d {
				t := time.Now()
				for j := 0; j < handBatch; j++ {
					p := &points[mix[pos%len(mix)]]
					pos++
					cfg, err := cl.Decide(p.cluster, p.kind, p.m)
					if err != nil || !p.ok(cfg) {
						out.failed++
						noteFailure(p, cfg, err)
					}
				}
				out.batches = append(out.batches, time.Since(t).Seconds())
				out.decisions += handBatch
			}
		}(c)
	}
	wg.Wait()
	return mergeLoad(outs, time.Since(start))
}

// openLoop runs phase 2: queries are due on a fixed schedule of handRate a
// second, dealt round-robin to the connections. Latency runs from when a
// query was due, so a stall delays and counts against every query behind
// it; late records how far behind schedule each query was sent. Both are
// indexed by slot, in due-time order. One goroutine sends every query: it
// spins to each due time, yielding the CPU to other threads while it
// waits, because sleeps shorter than a millisecond overshoot by up to a
// millisecond. A spinning sender per connection would keep both cores of
// a two-core host busy and stall the server's own threads, and handing
// slots from a pacer goroutine to per-connection senders costs more than
// the round trip.
func (h *handServer) openLoop(points []handPoint, mix []uint16, d time.Duration) loadResult {
	period := time.Duration(float64(time.Second) / handRate)
	slots := int(d / period)
	res := loadResult{late: make([]float32, slots), svc: make([]float32, slots)}
	start := time.Now().Add(time.Millisecond)
	for k := 0; k < slots; k++ {
		due := start.Add(time.Duration(k) * period)
		if w := time.Until(due); w > 2*time.Millisecond {
			time.Sleep(w - time.Millisecond)
		}
		for time.Now().Before(due) {
			syscall.RawSyscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
		}
		sent := time.Now()
		p := &points[mix[k%len(mix)]]
		cfg, err := h.clients[k%len(h.clients)].Decide(p.cluster, p.kind, p.m)
		done := time.Now()
		res.late[k] = float32(sent.Sub(due).Seconds())
		res.svc[k] = float32(done.Sub(sent).Seconds())
		res.decisions++
		if err != nil || !p.ok(cfg) {
			res.failed++
			noteFailure(p, cfg, err)
		}
	}
	res.elapsed = time.Since(start)
	return res
}

func mergeLoad(outs []loadResult, elapsed time.Duration) loadResult {
	res := loadResult{elapsed: elapsed}
	for _, o := range outs {
		res.decisions += o.decisions
		res.failed += o.failed
		res.batches = append(res.batches, o.batches...)
	}
	return res
}

func (r *run) count(l loadResult) {
	r.attempted += l.decisions
	r.failed += l.failed
}

func runHandTCP(r *run) error {
	points, mix, err := handQueries(r.seed)
	if err != nil {
		return err
	}
	var setups []float64
	var h *handServer
	for i := 0; i < handSetupReps; i++ {
		if h != nil {
			h.close()
		}
		t := time.Now()
		if h, err = startHandServer(); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer h.close()
	stopWriter := h.startWriter()
	defer func() {
		if stopWriter != nil {
			stopWriter()
		}
	}()

	if !r.trace {
		closed := h.closedLoop(points, mix, r.seconds*2/5)
		open := h.openLoop(points, mix, r.seconds*3/5)
		r.count(closed)
		r.count(open)
		mem := memMB()
		if len(closed.batches) == 0 || len(open.svc) == 0 {
			return fmt.Errorf("a load phase completed no query")
		}
		lat, svc := open.fromDue(), float64s(open.svc)
		r.set("setup_s", median(setups))
		r.set("wall_s", median(closed.batches))
		r.set("qps", float64(closed.decisions)/closed.elapsed.Seconds())
		// p50 runs from the due time. The p95 is the round trip alone: on a
		// virtual machine the due-time tail is set by how often the host
		// steals the sender's CPU for a few milliseconds (see PERFBENCH.md).
		p95, _ := tail(svc)
		r.set("p50_us", quantile(lat, 0.50)*1e6)
		r.set("p95_us", p95*1e6)
		r.info["round_trip_p99_us"] = quantile(svc, 0.99) * 1e6
		r.set("mem_mb", mem)
		r.info["batches"] = len(closed.batches)
		r.info["round_trip"] = latencyInfo(svc)
		r.info["from_due"] = latencyInfo(lat)
		r.info["from_due_p99_us"] = quantile(lat, 0.99) * 1e6
		r.info["late_p99_us"] = quantile(float64s(open.late), 0.99) * 1e6
		r.info["swaps"] = h.srv.Counters().Swaps
		return nil
	}

	quarter := r.seconds / 4
	base := h.closedLoop(points, mix, quarter)
	r.count(base)
	before := h.srv.Counters()
	a := sampleRuntime()
	var closed loadResult
	if err := r.cpuProfile(func() error {
		closed = h.closedLoop(points, mix, quarter)
		return nil
	}); err != nil {
		return err
	}
	b := sampleRuntime()
	open := h.openLoop(points, mix, quarter)
	after := h.srv.Counters()
	stopWriter()
	stopWriter = nil
	r.count(closed)
	r.count(open)
	if len(base.batches) == 0 || len(closed.batches) == 0 || len(open.late) == 0 {
		return fmt.Errorf("a load phase completed no query")
	}
	r.setRuntimeDelta(a, b, int(closed.decisions), runtime.GOMAXPROCS(0))
	r.set("trace.overhead_frac", median(closed.batches)/median(base.batches)-1)
	late := float64s(open.late)
	r.set("loadgen.late_ms", quantile(late, 0.99)*1e3)
	r.set("hand.cache_hit_frac", float64(after.CacheHits-before.CacheHits)/float64(after.Decisions-before.Decisions))
	r.set("hand.swaps", float64(after.Swaps-before.Swaps))
	r.info["late"] = latencyInfo(late)

	// Layer probes, writer stopped: the in-process decision path, the
	// table lookup under it, and a serial wire round trip.
	probe := quarter / 3
	r.set("serve.decide_ns", perCallNs(probe, points, mix, func(i int) (han.Config, error) {
		return h.srv.Decide(points[i].cluster, points[i].kind, points[i].m)
	}, r))
	tables, _, err := handTables()
	if err != nil {
		return err
	}
	byPoint := make([]*autotune.Table, len(points))
	for i, p := range points {
		byPoint[i] = tables[p.cluster]
		byPoint[i].BuildIndex()
	}
	r.set("autotune.decide_ns", perCallNs(probe, points, mix, func(i int) (han.Config, error) {
		return byPoint[i].Decide(points[i].kind, points[i].m), nil
	}, r))
	rtt := wireRTT(probe, points, mix, h.clients[0], r)
	r.set("wire.rtt_us", median(rtt)*1e6)
	r.info["wire_rtt"] = latencyInfo(rtt)
	return nil
}

// perCallNs times decide over the query mix (by point index) in batches
// and returns the median batch's nanoseconds per call. The answers are
// checked after each batch's clock stops.
func perCallNs(d time.Duration, points []handPoint, mix []uint16, decide func(i int) (han.Config, error), r *run) float64 {
	const batch = 1 << 14
	got := make([]han.Config, batch)
	errs := make([]error, batch)
	var per []float64
	start := time.Now()
	for pos := 0; len(per) < 3 || time.Since(start) < d; pos += batch {
		t := time.Now()
		for j := range got {
			got[j], errs[j] = decide(int(mix[(pos+j)%len(mix)]))
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/batch)
		for j := range got {
			p := &points[mix[(pos+j)%len(mix)]]
			r.attempted++
			if errs[j] != nil || !p.ok(got[j]) {
				r.failed++
				noteFailure(p, got[j], errs[j])
			}
		}
	}
	return median(per)
}

// wireRTT times serial round trips over one connection, one sample each.
func wireRTT(d time.Duration, points []handPoint, mix []uint16, cl *serve.Client, r *run) []float64 {
	var rtt []float64
	start := time.Now()
	for pos := 0; len(rtt) < 1000 || time.Since(start) < d; pos++ {
		p := &points[mix[pos%len(mix)]]
		t := time.Now()
		cfg, err := cl.Decide(p.cluster, p.kind, p.m)
		rtt = append(rtt, time.Since(t).Seconds())
		r.attempted++
		if err != nil || !p.ok(cfg) {
			r.failed++
			noteFailure(p, cfg, err)
		}
	}
	return rtt
}
