package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// oracleItem and oracleHeap are the reference queue for the differential
// test: the textbook container/heap binary heap over the same (t, seq)
// order, with the index bookkeeping heap.Fix needs.
type oracleItem struct {
	t         Time
	seq       uint64
	idx       int
	cancelled bool
}

type oracleHeap []*oracleItem

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *oracleHeap) Push(x interface{}) {
	it := x.(*oracleItem)
	it.idx = len(*h)
	*h = append(*h, it)
}
func (h *oracleHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	it.idx = -1
	*h = old[:n-1]
	return it
}

// checkEventHeap verifies the 4-ary heap property and that every event's
// idx names the slot it occupies.
func checkEventHeap(t *testing.T, h eventHeap) {
	t.Helper()
	for i := range h {
		if h[i].ev.idx != i {
			t.Fatalf("slot %d holds an event whose idx is %d", i, h[i].ev.idx)
		}
		if i > 0 && h.less(&h[i], &h[(i-1)/4]) {
			t.Fatalf("slot %d (t=%v seq=%d) precedes its parent", i, h[i].t, h[i].seq)
		}
	}
}

// TestEventHeapMatchesContainerHeap drives the typed 4-ary heap and the
// container/heap oracle through the same random sequences of pushes,
// in-place rearms (what AtInto does), cancellations and pops, and requires
// identical (t, seq) pop order. Times come from a small grid so ties on t
// are common and the seq tie-break is exercised.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h eventHeap
		var o oracleHeap
		var seq uint64
		// pairs[i] links the event and the oracle item created together;
		// both sides hold them in slots named by their idx.
		type pair struct {
			ev *event
			it *oracleItem
		}
		var queued []pair
		randTime := func() Time { return Time(rng.Intn(40)) * 0.25 }
		pops := 0
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(10); {
			case op < 4 || len(queued) == 0: // push
				tt := randTime()
				ev := &event{}
				it := &oracleItem{t: tt, seq: seq}
				h.push(entry{t: tt, seq: seq, ev: ev})
				heap.Push(&o, it)
				seq++
				queued = append(queued, pair{ev, it})
			case op < 6: // rearm in place
				p := queued[rng.Intn(len(queued))]
				tt := randTime()
				x := &h[p.ev.idx]
				x.t, x.seq = tt, seq
				h.fix(p.ev.idx)
				p.it.t, p.it.seq = tt, seq
				heap.Fix(&o, p.it.idx)
				seq++
				p.ev.cancelled, p.it.cancelled = false, false
			case op < 7: // cancel: stays queued, pops as a tombstone
				p := queued[rng.Intn(len(queued))]
				p.ev.cancelled, p.it.cancelled = true, true
			default: // pop
				got := h.pop()
				want := heap.Pop(&o).(*oracleItem)
				if got.t != want.t || got.seq != want.seq || got.ev.cancelled != want.cancelled {
					t.Fatalf("seed %d pop %d: got (t=%v seq=%d cancelled=%v), oracle (t=%v seq=%d cancelled=%v)",
						seed, pops, got.t, got.seq, got.ev.cancelled, want.t, want.seq, want.cancelled)
				}
				if got.ev.idx != -1 {
					t.Fatalf("seed %d: popped event keeps idx %d", seed, got.ev.idx)
				}
				pops++
				for i, p := range queued {
					if p.ev == got.ev {
						queued[i] = queued[len(queued)-1]
						queued = queued[:len(queued)-1]
						break
					}
				}
			}
			if len(h) != len(o) {
				t.Fatalf("seed %d step %d: heap holds %d entries, oracle %d", seed, step, len(h), len(o))
			}
			if step%97 == 0 {
				checkEventHeap(t, h)
			}
		}
		for len(o) > 0 {
			got := h.pop()
			want := heap.Pop(&o).(*oracleItem)
			if got.t != want.t || got.seq != want.seq {
				t.Fatalf("seed %d drain: got (t=%v seq=%d), oracle (t=%v seq=%d)", seed, got.t, got.seq, want.t, want.seq)
			}
		}
		if len(h) != 0 {
			t.Fatalf("seed %d: heap holds %d entries after the oracle drained", seed, len(h))
		}
	}
}
