// Package sim implements a deterministic process-oriented discrete-event
// simulation engine.
//
// The engine owns a virtual clock and an event queue ordered by (time,
// sequence number), so two runs of the same program observe identical event
// orderings. The queue is a 4-ary min-heap whose slots carry the (time,
// sequence) key inline, so a sift compares keys without touching the
// events themselves.
//
// Simulated processes are coroutines (iter.Pull). The engine switches into
// a process to start or resume it, and the process switches back when it
// blocks or its body returns. At any instant exactly one of them runs, so
// all engine and process state can be mutated without locks. Processes
// block with Proc.Sleep and Proc.Wait; other code wakes them by firing
// Signals or scheduling callbacks with Engine.At / Engine.After.
//
// A coroutine whose process finished goes onto its engine's idle list,
// and the next process to start runs on it, so a run creates only as many
// coroutines as it has processes alive at once. A run that leaves the
// queue empty, or ends with an error, stops the idle coroutines, so none
// outlives its engine. A deadlocked run keeps its parked processes'
// coroutines, as it must: their bodies are suspended mid-call.
//
// Because a process body runs inside a coroutine, a panic in it reaches
// Run, which re-panics with the process's name, and runtime.Goexit in it
// (t.FailNow in a test, say) ends the goroutine that called Run as well.
//
// Event records are pooled: large simulations (the 4096-rank HAN runs
// schedule tens of millions of events) recycle event structs instead of
// churning the garbage collector. Timer handles stay safe across recycling
// through a generation counter.
//
// # Ownership
//
// An Engine — together with every Proc, network, and world attached to it
// — is owned by exactly one goroutine-group at a time: the goroutine that
// calls Run plus the process coroutines it switches into. Nothing in the
// engine is locked, so touching an engine from any other goroutine is a
// data race. Engine.Run asserts it is not re-entered, and hanlint enforces
// the invariant statically: the simtime pass forbids bare `go` statements
// everywhere except internal/exec (the engine itself has none), and
// the enginebound pass forbids internal/exec from importing any
// engine-owning package — so the only host concurrency in the tree runs
// opaque executor jobs, each of which builds and drains a private engine
// (DESIGN.md §10).
//
// # Partitioned simulation
//
// Parallel (parallel.go) runs several engines side by side under
// conservative lookahead synchronization (DESIGN.md §14): each partition
// owns a private Engine with disjoint state, partitions exchange messages
// only through Link FIFOs with declared minimum latencies, and a windowed
// coordinator advances every partition to a common horizon per round. The
// incremental-advance Engine methods this requires — runUntil,
// nextEventTime, liveProcs — belong to the coordinator's window loop
// alone, so they are unexported and the compiler rejects them outside
// this package: interleaving two runUntil drivers (or branching on
// nextEventTime outside the barrier protocol) would silently break the
// bit-identity contract with the serial oracle. Everyone else drives an
// engine with Engine.Run or through a Parallel coordinator. Within a
// window a partition's engine, with its process coroutines, migrates to
// whichever host worker the coordinator's Runner assigns — safe because
// the round barrier establishes a happens-before edge between a
// partition's consecutive windows (exec.Pool provides exactly that
// barrier), and every coroutine switch extends that edge into the
// coroutine.
//
// NewOracle builds the reference configuration: the same partitions and
// links multiplexed onto one shared serial engine, whose event interleaving
// defines the bit-identity contract the windowed engine is held to.
package sim
