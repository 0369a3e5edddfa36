package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/hanrepro/han/internal/autotune"
	"github.com/hanrepro/han/internal/bench"
	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/flow"
	"github.com/hanrepro/han/internal/han"
	"github.com/hanrepro/han/internal/metrics"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/sim"
)

// Pinned simulation results at the default seed. They change only in a
// change that says why (docs/DETERMINISM.md).
const (
	pinnedSeed       = 1
	bcastSize        = 256 << 10
	bcastPinnedBits  = 0x3f429ee42681934a // 568.2577148148152 sim-us
	parsimGroups     = 16
	parsimPinnedHash = 0x21dba90f29a3392c // 916.0 sim-us
	setupReps        = 20                 // set-up repetitions, whose median is setup_s
	tuneSetupWorlds  = 256                // Mini(4,4) worlds built per tune_mini set-up
)

// timedOp is one call of a simulator workload. It returns the host time
// of the call's timed part, and ok=false when the call failed its checks.
type timedOp func() (wall time.Duration, ok bool)

// measure repeats op until budget is spent, running at least minCalls calls and
// starting no call that the previous one suggests would overrun, and
// returns the timed seconds of each call that passed its checks. A full
// GC before each call keeps one call's garbage out of the next call's
// time.
func measure(budget time.Duration, minCalls int, op timedOp) (walls []float64) {
	start := time.Now()
	var last time.Duration
	for i := 0; i < minCalls || time.Since(start)+last <= budget; i++ {
		runtime.GC()
		t := time.Now()
		wall, ok := op()
		last = time.Since(t)
		if ok {
			walls = append(walls, wall.Seconds())
		}
	}
	return walls
}

// setSimEndToEnd records the end-to-end metrics of a simulator workload:
// a call is the unit of work, so qps is calls per host second and the
// latency percentiles are over per-call host time. A run holds too few
// calls for a p95, so p95_us is the highest percentile the calls support
// (see tail); the run information names it.
func (r *run) setSimEndToEnd(setups, walls []float64) error {
	if len(walls) == 0 || len(setups) == 0 {
		return fmt.Errorf("no call completed its checks")
	}
	r.set("setup_s", median(setups))
	r.set("wall_s", median(walls))
	r.set("qps", float64(len(walls))/sum(walls))
	p95, _ := tail(walls)
	r.set("p50_us", quantile(walls, 0.50)*1e6)
	r.set("p95_us", p95*1e6)
	r.set("mem_mb", memMB())
	r.info["calls"] = latencyInfo(walls)
	r.info["setup_samples"] = len(setups)
	return nil
}

// traceSim is the traced run shared by the simulator workloads: untraced
// calls for the overhead baseline, then calls of traced under the CPU
// profiler with runtime counters around them. It returns the number of
// traced calls, by which the caller divides its own counts.
func (r *run) traceSim(budget time.Duration, untraced, traced timedOp) (int, error) {
	base := measure(budget, 2, untraced)
	var walls []float64
	a := sampleRuntime()
	if err := r.cpuProfile(func() error {
		walls = measure(budget, 2, traced)
		return nil
	}); err != nil {
		return 0, err
	}
	b := sampleRuntime()
	if len(walls) == 0 || len(base) == 0 {
		return 0, fmt.Errorf("no call completed its checks")
	}
	r.setRuntimeDelta(a, b, len(walls), runtime.GOMAXPROCS(0))
	r.set("trace.overhead_frac", median(walls)/median(base)-1)
	r.info["traced_calls"] = len(walls)
	r.info["untraced_calls"] = len(base)
	return len(walls), nil
}

// ---- bcast4096 ----

// bcastWorld is one 4096-rank IMB broadcast world, built and started but
// not yet run.
type bcastWorld struct {
	eng    *sim.Engine
	maxDur []float64 // per iteration, max over ranks; [0] is the warm-up
	reg    *metrics.Registry
	mon    *flow.Monitor
}

// newBcastWorld builds the world of BenchmarkFig10Scale4096: the full
// ShaheenII machine running HAN on Open MPI's P2P layer, with every rank
// running IMB's schedule (barrier, one warm-up and ItersFor timed
// broadcasts, max over ranks). observe enables the mpi/han metrics and
// the flow monitor. It returns the time spent in world construction
// (engine, machine, world) and in the whole set-up.
func newBcastWorld(seed int64, observe bool) (bw *bcastWorld, world, setup time.Duration) {
	t0 := time.Now()
	eng := sim.New()
	m := cluster.NewMachine(eng, cluster.ShaheenII())
	sys := bench.HANSystem(nil)
	w := mpi.NewWorld(m, sys.Pers)
	w.Seed(seed)
	bw = &bcastWorld{eng: eng, maxDur: make([]float64, bench.ItersFor(bcastSize)+1)}
	if observe {
		bw.reg = metrics.New()
		w.EnableMetrics(bw.reg) // before Setup, so han.New registers too
		bw.mon = m.Net.EnableMonitor()
	}
	world = time.Since(t0)
	ops := sys.Setup(w)
	w.Start(func(p *mpi.Proc) {
		c := w.World()
		for it := range bw.maxDur {
			c.Barrier(p)
			t := p.Now()
			ops.Bcast(p, mpi.Phantom(bcastSize), 0)
			if d := float64(p.Now() - t); d > bw.maxDur[it] {
				bw.maxDur[it] = d
			}
		}
	})
	return bw, world, time.Since(t0)
}

// seconds is IMB's t_max: the mean over timed iterations of the max over
// ranks, summed in iteration order exactly as bench.IMBWith does.
func (bw *bcastWorld) seconds() float64 {
	s := 0.0
	for _, d := range bw.maxDur[1:] {
		s += d
	}
	return s / float64(len(bw.maxDur)-1)
}

// simBitsCheck holds the reference a workload's sim bits must match: the
// pinned value at the pinned seed, and otherwise the first call's bits.
type simBitsCheck struct {
	ref  uint64
	have bool
}

func newSimBitsCheck(seed int64, pinned uint64) *simBitsCheck {
	if seed == pinnedSeed {
		return &simBitsCheck{ref: pinned, have: true}
	}
	return &simBitsCheck{}
}

// ok reports whether bits match the reference, adopting bits as the
// reference when there is none yet.
func (c *simBitsCheck) ok(bits uint64) bool {
	if !c.have {
		c.ref, c.have = bits, true
	}
	return bits == c.ref
}

func runBcast4096(r *run) error {
	bits := newSimBitsCheck(r.seed, bcastPinnedBits)
	var setups, worldTimes []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		_, world, setup := newBcastWorld(r.seed, false)
		setups = append(setups, setup.Seconds())
		worldTimes = append(worldTimes, world.Seconds())
	}
	var messages, unexpected, delivered, stalls, tasks, segments, flows float64
	op := func(observe bool) timedOp {
		return func() (time.Duration, bool) {
			bw, _, _ := newBcastWorld(r.seed, observe)
			t := time.Now()
			err := bw.eng.Run()
			wall := time.Since(t)
			r.check(err == nil, "bcast4096: run: %v", err)
			if err != nil {
				return wall, false
			}
			got := math.Float64bits(bw.seconds())
			ok := bits.ok(got)
			r.check(ok, "bcast4096: sim bits %016x (%v sim-us), want %016x", got, bw.seconds()*1e6, bits.ref)
			if observe {
				fam := familySums(bw.reg)
				messages += fam["mpi_messages"]
				unexpected += fam["mpi_unexpected_messages"]
				delivered += fam["mpi_delivered_messages"]
				stalls += fam["mpi_rendezvous_stalls"]
				tasks += fam["han_tasks"]
				segments += fam["han_segments_per_collective_sum"]
				flows += float64(bw.mon.Totals().Started)
			}
			return wall, ok
		}
	}
	if !r.trace {
		walls := measure(r.seconds, 2, op(false))
		r.info["sim_us"] = math.Float64frombits(bits.ref) * 1e6
		return r.setSimEndToEnd(setups, walls)
	}
	n, err := r.traceSim(r.seconds/2, op(false), op(true))
	if err != nil {
		return err
	}
	ops := float64(n)
	r.set("setup.world_s", median(worldTimes))
	r.set("mpi.messages", messages/ops)
	r.set("mpi.unexpected_frac", unexpected/delivered)
	r.set("mpi.rendezvous_stalls", stalls/ops)
	r.set("han.tasks", tasks/ops)
	r.set("han.segments", segments/ops)
	r.set("flow.flows", flows/ops)
	return nil
}

// ---- parsim4096 ----

func parsimCall(seed int64, workers int, oracle bool) (bench.ParallelResult, time.Duration, error) {
	t := time.Now()
	res, err := bench.ParallelScaleBcast(cluster.ShaheenII(), bcastSize, bench.ParallelOpts{
		Groups: parsimGroups, Workers: workers, Oracle: oracle, Seed: seed,
	})
	return res, time.Since(t), err
}

// buildGroupWorlds builds, outside any timed call, the sixteen
// 8-node group worlds ParallelScaleBcast builds inside its call: one
// engine, machine, world and HAN instance per group. It returns the time
// spent in world construction and in the whole set-up.
func buildGroupWorlds(seed int64) (world, setup time.Duration) {
	spec := cluster.ShaheenII()
	gspec := spec
	gspec.Nodes = spec.Nodes / parsimGroups
	worlds := make([]*mpi.World, parsimGroups)
	t0 := time.Now()
	for g := range worlds {
		gs := gspec
		gs.Name = fmt.Sprintf("%s/g%d", spec.Name, g)
		worlds[g] = mpi.NewWorld(cluster.NewMachine(sim.New(), gs), mpi.OpenMPI())
		worlds[g].Seed(seed + int64(g))
	}
	world = time.Since(t0)
	for _, w := range worlds {
		han.New(w)
	}
	return world, time.Since(t0)
}

func runParsim4096(r *run) error {
	workers := runtime.NumCPU()
	oracle, _, err := parsimCall(r.seed, 0, true)
	r.check(err == nil && len(oracle.Errors) == 0, "parsim4096: oracle run: err %v, rank errors %v", err, oracle.Errors)
	if err != nil {
		return err
	}
	if r.seed == pinnedSeed {
		r.check(oracle.Hash == parsimPinnedHash, "parsim4096: oracle bits %016x, want pinned %016x", oracle.Hash, uint64(parsimPinnedHash))
	}
	r.info["sim_us"] = oracle.SimSeconds * 1e6
	r.info["workers"] = workers

	var setups, worldTimes []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		world, setup := buildGroupWorlds(r.seed)
		setups = append(setups, setup.Seconds())
		worldTimes = append(worldTimes, world.Seconds())
	}
	op := func(workers int, oracleMode bool) timedOp {
		return func() (time.Duration, bool) {
			res, d, err := parsimCall(r.seed, workers, oracleMode)
			ok := err == nil && len(res.Errors) == 0 && res.Hash == oracle.Hash
			r.check(ok, "parsim4096: workers %d oracle %v: err %v, rank errors %d, bits %016x, oracle bits %016x",
				workers, oracleMode, err, len(res.Errors), res.Hash, oracle.Hash)
			return d, ok
		}
	}
	if !r.trace {
		walls := measure(r.seconds, 3, op(workers, false))
		return r.setSimEndToEnd(setups, walls)
	}
	// Engine scaling: alternate one-worker, nproc-worker and oracle calls
	// so host noise hits all three alike.
	var one, many, ora []float64
	third := r.seconds / 3
	start := time.Now()
	for len(one) < 2 || time.Since(start) < third {
		for _, v := range []struct {
			dst     *[]float64
			workers int
			oracle  bool
		}{{&one, 1, false}, {&many, workers, false}, {&ora, 0, true}} {
			*v.dst = append(*v.dst, measure(0, 1, op(v.workers, v.oracle))...)
		}
	}
	if len(one) == 0 || len(many) == 0 || len(ora) == 0 {
		return fmt.Errorf("no scaling call completed its checks")
	}
	r.set("parallel.scaling", median(one)/median(many))
	r.set("parallel.oracle_ratio", median(ora)/median(many))
	r.info["scaling_calls"] = len(many)
	if _, err := r.traceSim(third, op(workers, false), op(workers, false)); err != nil {
		return err
	}
	r.set("setup.world_s", median(worldTimes))
	return nil
}

// ---- tune_mini ----

func tuneSpace() autotune.Space {
	return autotune.Space{
		Msgs:  []int{4 << 10, 256 << 10, 1 << 20},
		FS:    []int{64 << 10, 256 << 10},
		IMods: han.InterNames(),
		SMods: han.IntraNames(),
		IBS:   []int{32 << 10},
	}
}

// tuneSweep runs one tune_mini call: an exhaustive search and then a
// combined (task-based plus heuristics) search over tuneSpace on a 4x4
// Mini machine for Bcast and Allreduce. It returns both tables.
func tuneSweep(seed int64, reg *metrics.Registry) (tables []*autotune.Table, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("search panicked: %v", p)
		}
	}()
	env := autotune.NewEnv(cluster.Mini(4, 4), mpi.OpenMPI())
	env.Seed = seed
	kinds := []coll.Kind{coll.Bcast, coll.Allreduce}
	workers := runtime.NumCPU()
	ex := autotune.RunSearch(env, tuneSpace(), kinds, autotune.Exhaustive, autotune.SearchOpts{Iters: 2, Workers: workers, Metrics: reg})
	co := autotune.RunSearch(env, tuneSpace(), kinds, autotune.Combined, autotune.SearchOpts{Workers: workers, Metrics: reg})
	return []*autotune.Table{ex.Table, co.Table}, nil
}

// tableDigest hashes the JSON encoding of tables: two sweeps agree on
// every byte of their output iff their digests match.
func tableDigest(tables []*autotune.Table) (string, error) {
	h := sha256.New()
	for _, t := range tables {
		b, err := json.Marshal(t)
		if err != nil {
			return "", err
		}
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// buildMiniWorlds builds n worlds of the kind each tune_mini measurement
// builds inside the timed call. It returns the time spent in world
// construction and in the whole set-up.
func buildMiniWorlds(seed int64, n int) (world, setup time.Duration) {
	worlds := make([]*mpi.World, n)
	t0 := time.Now()
	for i := range worlds {
		worlds[i] = mpi.NewWorld(cluster.NewMachine(sim.New(), cluster.Mini(4, 4)), mpi.OpenMPI())
		worlds[i].Seed(seed)
	}
	world = time.Since(t0)
	for _, w := range worlds {
		han.New(w)
	}
	return world, time.Since(t0)
}

func runTuneMini(r *run) error {
	var setups, worldTimes []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		world, setup := buildMiniWorlds(r.seed, tuneSetupWorlds)
		setups = append(setups, setup.Seconds())
		worldTimes = append(worldTimes, world.Seconds())
	}
	var ref string
	var measurements, simCost float64
	op := func(reg *metrics.Registry) timedOp {
		return func() (time.Duration, bool) {
			t := time.Now()
			tables, err := tuneSweep(r.seed, reg)
			wall := time.Since(t)
			r.check(err == nil, "tune_mini: %v", err)
			if err != nil {
				return wall, false
			}
			digest, err := tableDigest(tables)
			if ref == "" {
				ref = digest
			}
			ok := err == nil && digest == ref
			r.check(ok, "tune_mini: table digest %s, first sweep %s (err %v)", digest, ref, err)
			if reg != nil {
				for _, t := range tables {
					measurements += float64(t.Measurements)
					simCost += t.TuningCost
				}
			}
			return wall, ok
		}
	}
	if !r.trace {
		walls := measure(r.seconds, 3, op(nil))
		r.info["tables_sha256"] = ref
		return r.setSimEndToEnd(setups, walls)
	}
	reg := metrics.New()
	n, err := r.traceSim(r.seconds/2, op(nil), op(reg))
	if err != nil {
		return err
	}
	ops := float64(n)
	fam := familySums(reg)
	r.set("setup.world_s", median(worldTimes))
	r.set("tune.measurements", measurements/ops)
	r.set("tune.sim_cost_s", simCost/ops)
	r.set("exec.jobs", fam["exec_jobs"]/ops)
	r.set("exec.steals", fam["exec_steals"]/ops)
	if lookups := fam["exec_cache_hits"] + fam["exec_cache_misses"]; lookups > 0 {
		r.set("exec.flight_hit_frac", fam["exec_cache_hits"]/lookups)
	}
	return nil
}
