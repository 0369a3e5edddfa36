package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// This file folds a CPU profile by layer. Each sample is charged to the
// layer of its innermost frame that belongs to one; runtime and standard
// library helpers (memmove, map access, time.Now, sync) are charged to the
// first layer that calls them, except the scheduler, the garbage
// collector and allocator, and network I/O, which are layers of their own.

// layers lists the profile layers in report order; metric cpu.<layer> is
// that layer's share of the samples.
var layers = []string{
	"sim.queue", "sched", "sim", "flow", "mpi", "coll", "han", "cluster", "arena",
	"exec", "autotune", "serve", "net", "gc", "runtime", "bench", "other",
}

// tableLayers are the layers PERFBENCH.md's layer table names; their shares
// are summed into the run information as cpu_table_share.
var tableLayers = []string{
	"sim.queue", "sched", "sim", "flow", "mpi", "coll", "han", "autotune", "gc", "serve", "net",
}

const repoPrefix = "github.com/hanrepro/han/internal/"

// runtimeSched and runtimeGC are name prefixes (after "runtime.") of the
// scheduler / goroutine-switch frames and the GC / allocator frames.
var (
	runtimeSched = []string{
		"chan", "gopark", "park_m", "goready", "ready", "schedule", "findRunnable", "findrunnable",
		"execute", "gogo", "mcall", "runq", "globrunq", "stealWork", "checkTimers", "wakep", "startm",
		"stopm", "mPark", "note", "futex", "lock2", "unlock2", "lockWithRank", "unlockWithRank",
		"osyield", "usleep", "procyield", "casgstatus", "resetspinning", "handoffp", "acquirep",
		"releasep", "gosched", "goexit", "gdestroy", "newproc", "selectgo", "selpark", "send", "recv",
		"mstart", "semacquire", "semrelease", "notifyList", "injectglist", "pidle", "sysmon", "retake",
		"preempt", "asyncPreempt", "runtimer", "(*timer", "(*timers", "lock", "unlock",
	}
	runtimeGC = []string{
		"gc", "mallocgc", "newobject", "newarray", "makeslice", "makemap", "growslice", "mark", "scan",
		"greyobject", "findObject", "heapBits", "heapSetType", "typePointers", "(*typePointers)",
		"(*gcWork)", "(*gcBits)", "(*mspan)", "(*mheap)", "(*mcentral)", "(*mcache)", "nextFreeFast",
		"bgsweep", "bgscavenge", "sweepone", "(*sweepLocked)", "(*sweepLocker)", "wbBuf", "(*wbBuf)",
		"bulkBarrier", "(*pageAlloc)", "(*pallocBits)", "(*pallocData)", "deductAssistCredit",
		"publicationBarrier", "(*gcControllerState)", "(*gcCPULimiterState)", "markBits", "(*markBits)",
		"spanOf", "pageIndexOf", "sysUnused", "sysUsed", "sysAlloc", "sysFree", "sysMap", "madvise",
		"(*fixalloc)", "(*stackScanState)", "(*scavenger", "(*scavengeIndex", "(*mSpanList)", "(*spanSet)",
		"(*lfstack)", "(*activeSweep)", "shade",
	}
	runtimeNet = []string{"netpoll", "(*pollDesc)", "epoll", "entersyscall", "exitsyscall", "reentersyscall"}
	stdNet     = []string{"net", "internal/poll", "syscall", "internal/runtime/syscall", "runtime/internal/syscall", "internal/syscall/unix", "os"}
)

// funcPackage returns the import path of a profile function name such as
// "github.com/x/y/pkg.(*T).M" or "runtime.chanrecv".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic shapes can name other packages
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func hasPrefixAny(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// frameLayer returns the layer a single frame belongs to, or "" for a
// helper frame whose cost belongs to its caller. heap is set when the
// frame is container/heap, whose cost belongs to the event queue when its
// caller is the sim package.
func frameLayer(fn string) (layer string, heap bool) {
	pkg := funcPackage(fn)
	switch {
	case pkg == "runtime":
		name := fn[len("runtime."):]
		switch {
		case hasPrefixAny(name, runtimeNet):
			return "net", false
		case hasPrefixAny(name, runtimeGC):
			return "gc", false
		case hasPrefixAny(name, runtimeSched):
			return "sched", false
		}
		return "", false
	case pkg == "container/heap":
		return "", true
	case pkg == "main":
		return "bench", false
	case strings.HasPrefix(pkg, repoPrefix):
		l := strings.SplitN(pkg[len(repoPrefix):], "/", 2)[0]
		switch l {
		case "sim":
			if strings.Contains(fn, "eventHeap") {
				return "sim.queue", false
			}
			return "sim", false
		case "flow", "mpi", "coll", "han", "cluster", "arena", "exec", "autotune", "serve", "bench":
			return l, false
		}
		return "other", false
	}
	for _, p := range stdNet {
		if pkg == p {
			return "net", false
		}
	}
	return "", false
}

// classify charges one stack (innermost frame first) to a layer.
func classify(frames []string) string {
	heapSeen := false
	for _, fn := range frames {
		l, heap := frameLayer(fn)
		heapSeen = heapSeen || heap
		if l == "" {
			continue
		}
		if l == "sim" && heapSeen {
			return "sim.queue"
		}
		return l
	}
	if len(frames) > 0 && funcPackage(frames[0]) == "runtime" {
		return "runtime"
	}
	return "other"
}

// foldProfile decodes a gzipped pprof CPU profile and returns the sample
// count per layer and the total sample count.
func foldProfile(data []byte) (map[string]int64, int64, error) {
	samples, err := decodeProfile(data)
	if err != nil {
		return nil, 0, err
	}
	byLayer := map[string]int64{}
	var total int64
	for _, s := range samples {
		byLayer[classify(s.frames)] += s.count
		total += s.count
	}
	return byLayer, total, nil
}

// setCPUShares records cpu.<layer> for every layer and cpu.samples.
func (r *run) setCPUShares(byLayer map[string]int64, total int64) {
	r.set("cpu.samples", float64(total))
	table := 0.0
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = float64(byLayer[l]) / float64(total)
		}
		r.set("cpu."+l, share)
	}
	for _, l := range tableLayers {
		table += r.metrics["cpu."+l]
	}
	r.info["cpu_table_share"] = table
}

// cpuProfile profiles fn and folds the result by layer into r.
func (r *run) cpuProfile(fn func() error) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("start CPU profile: %w", err)
	}
	ferr := fn()
	pprof.StopCPUProfile()
	if ferr != nil {
		return ferr
	}
	byLayer, total, err := foldProfile(buf.Bytes())
	if err != nil {
		return fmt.Errorf("fold CPU profile: %w", err)
	}
	r.setCPUShares(byLayer, total)
	return nil
}

// stackSample is one profile sample: its frames, innermost first, and its
// sample count.
type stackSample struct {
	frames []string
	count  int64
}

// decodeProfile parses the subset of the pprof protobuf format
// (github.com/google/pprof/proto/profile.proto) that folding needs:
// samples, locations with their inlined lines, functions and strings.
func decodeProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []rawSample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = forEachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := forEachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendPacked(&s.locs, v, b)
				case 2:
					return appendPacked(&s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := forEachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return forEachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := forEachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var frames []string
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if idx := funcs[f]; idx < uint64(len(strs)) {
					frames = append(frames, strs[idx])
				}
			}
		}
		out = append(out, stackSample{frames: frames, count: int64(s.values[0])})
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// forEachField calls fn for every field of a protobuf message: v holds a
// varint or fixed-width value, b the bytes of a length-delimited field.
func forEachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, typ := int(key>>3), key&7
		var v uint64
		var b []byte
		switch typ {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1, 5:
			w := 8
			if typ == 5 {
				w = 4
			}
			if len(msg) < w {
				return errTruncated
			}
			msg = msg[w:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", typ)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, given either as one
// unpacked value v or as a packed run b.
func appendPacked(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
