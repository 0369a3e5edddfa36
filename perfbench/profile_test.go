package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"
)

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"runtime.chanrecv": "runtime",
		"github.com/hanrepro/han/internal/sim.(*Engine).Run":                     "github.com/hanrepro/han/internal/sim",
		"github.com/hanrepro/han/internal/sim.eventHeap.Less":                    "github.com/hanrepro/han/internal/sim",
		"container/heap.down":                                                    "container/heap",
		"github.com/hanrepro/han/internal/exec.(*Flight[go.shape.struct {}]).Do": "github.com/hanrepro/han/internal/exec",
		"main.runBcast4096.func1":                                                "main",
		"internal/poll.(*FD).Read":                                               "internal/poll",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestClassifyFoldsFramesByLayer(t *testing.T) {
	const r = repoPrefix
	for _, c := range []struct {
		frames []string // innermost first
		want   string
	}{
		{[]string{r + "sim.eventHeap.Less", "container/heap.down", r + "sim.(*Engine).Run"}, "sim.queue"},
		{[]string{"container/heap.up", "container/heap.Push", r + "sim.(*Engine).push"}, "sim.queue"},
		{[]string{r + "sim.(*Engine).Run"}, "sim"},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", r + "sim.(*Proc).park"}, "sched"},
		{[]string{"runtime.chanrecv", "runtime.chanrecv1", r + "sim.(*Proc).park"}, "sched"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", r + "flow.(*Network).Start"}, "gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.memmove", r + "flow.(*Network).rebalance"}, "flow"},
		{[]string{"runtime.mapaccess2", r + "mpi.(*World).match"}, "mpi"},
		{[]string{"runtime.nanotime1", "time.Now", r + "serve.(*Server).Decide"}, "serve"},
		{[]string{"sync.(*Mutex).Lock", r + "serve.(*shard).cacheGet"}, "serve"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.Syscall", "internal/poll.(*FD).Write", r + "serve.(*Client).Decide"}, "net"},
		{[]string{"runtime.netpoll", "runtime.findRunnable", "runtime.schedule"}, "net"},
		{[]string{"main.runBcast4096.func1"}, "bench"},
		{[]string{r + "bench.ParallelScaleBcast.func1"}, "bench"},
		{[]string{r + "metrics.(*Counter).Add"}, "other"},
		{[]string{"runtime.morestack"}, "runtime"},
		{[]string{"encoding/json.Marshal"}, "other"},
	} {
		if got := classify(c.frames); got != c.want {
			t.Errorf("classify(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// pb is a minimal protobuf encoder for building test profiles.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(num int, b []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
	return p
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// testProfile builds a gzipped profile with three functions, one location
// holding an inlined pair of frames and one plain location, and three
// samples with packed and unpacked location ids and values; the first
// value of each is its sample count.
func testProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "container/heap.down", repoPrefix + "sim.(*Engine).Run", repoPrefix + "flow.(*Network).Start"}
	var p pb
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	for id, name := range []uint64{3, 4, 5} {
		p.bytes(5, (&pb{}).varint(1, uint64(id+1)).varint(2, name).b)
	}
	line := func(fn uint64) []byte { return (&pb{}).varint(1, fn).varint(2, 7).b }
	// Location 1: heap.down inlined into Engine.Run (innermost first).
	p.bytes(4, (&pb{}).varint(1, 1).bytes(4, line(1)).bytes(4, line(2)).b)
	p.bytes(4, (&pb{}).varint(1, 2).bytes(4, line(3)).b)
	p.bytes(2, (&pb{}).bytes(1, packed(1)).bytes(2, packed(5, 50)).b)
	p.bytes(2, (&pb{}).varint(1, 2).varint(2, 2).b)
	p.bytes(2, (&pb{}).bytes(1, packed(2, 1)).bytes(2, packed(1, 10)).b)
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDecodeAndFoldProfile(t *testing.T) {
	data := testProfile(t)
	samples, err := decodeProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("decoded %d samples, want 3", len(samples))
	}
	if got := samples[0].frames; len(got) != 2 || got[0] != "container/heap.down" || got[1] != repoPrefix+"sim.(*Engine).Run" {
		t.Errorf("inlined location frames = %v", got)
	}
	if got := samples[2].frames; len(got) != 3 || got[0] != repoPrefix+"flow.(*Network).Start" {
		t.Errorf("two-location stack = %v", got)
	}
	byLayer, total, err := foldProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if total != 8 || byLayer["sim.queue"] != 5 || byLayer["flow"] != 3 {
		t.Errorf("fold = %v over %d samples, want sim.queue 5 and flow 3 of 8", byLayer, total)
	}
	r := newRun(1, 0, true)
	r.setCPUShares(byLayer, total)
	if r.metrics["cpu.sim.queue"] != 5.0/8 || r.metrics["cpu.samples"] != 8 || r.metrics["cpu.gc"] != 0 {
		t.Errorf("shares = %v", r.metrics)
	}
}

func TestDecodeProfileRejectsTruncatedInput(t *testing.T) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte{2<<3 | 2, 50, 1}) // a sample claiming 50 bytes
	zw.Close()
	if _, err := decodeProfile(buf.Bytes()); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
	if _, err := decodeProfile([]byte("not gzip")); err == nil {
		t.Fatal("non-gzip input decoded without error")
	}
}
