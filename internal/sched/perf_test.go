package sched

import (
	"testing"

	"eagletree/internal/iface"
)

// Parked-queue shape for the dispatch benchmark: a deep queue whose requests
// all wait on busy LUNs, as in a full-scale run where GC reads pile up
// behind one LUN, with one runnable arrival served per pop.
const (
	popParked  = 512
	popClasses = 64
)

// lunGate holds every request with ID ≤ parked on LUN class ID mod
// popClasses, whose tokens never move; newer requests run.
type lunGate struct{ parked uint64 }

func (g *lunGate) Evaluate(r *iface.Request) (bool, int) {
	if r.ID <= g.parked {
		return false, int(r.ID % popClasses)
	}
	return true, -1
}
func (*lunGate) ClassToken(int) uint64  { return 0 }
func (*lunGate) ClassStable(int) uint64 { return 0 }

// schedPopRig queues popParked requests (reads and writes alternating, so a
// Priority policy spreads them over two buckets) and parks them with one
// pop, leaving the policy in the steady state the benchmark measures.
func schedPopRig(tb testing.TB, p Policy) func(i int) {
	g := &lunGate{parked: popParked}
	for id := uint64(1); id <= popParked; id++ {
		r := &iface.Request{ID: id, Type: iface.Read}
		if id%2 == 0 {
			r.Type = iface.Write
		}
		p.Push(r)
	}
	if r := p.Pop(0, g); r != nil {
		tb.Fatalf("%s popped parked request %d", p.Name(), r.ID)
	}
	reqs := [2]*iface.Request{
		{ID: popParked + 1, Type: iface.Read},
		{ID: popParked + 2, Type: iface.Write},
	}
	return func(i int) {
		want := reqs[i%2]
		p.Push(want)
		if got := p.Pop(0, g); got != want {
			tb.Fatalf("%s popped %v, want the runnable request %d", p.Name(), got, want.ID)
		}
	}
}

// schedPopPolicies returns fresh instances of the policies built on the
// shared class-parking queue, by benchmark name.
func schedPopPolicies() map[string]Policy {
	return map[string]Policy{"fifo": &FIFO{}, "priority": &Priority{Prefer: PreferReads}}
}

// TestSchedPopAllocs guards the dispatch path's zero-allocation contract with
// a deep parked queue: a pop that skips sleeping classes and serves the one
// runnable request allocates nothing.
func TestSchedPopAllocs(t *testing.T) {
	for _, p := range schedPopPolicies() {
		pop := schedPopRig(t, p)
		i := 0
		if allocs := testing.AllocsPerRun(1000, func() { pop(i); i++ }); allocs != 0 {
			t.Errorf("%s: %.2f allocs per pop, want 0", p.Name(), allocs)
		}
		if n := p.Len(); n != popParked {
			t.Errorf("%s: Len %d after the run, want %d", p.Name(), n, popParked)
		}
	}
}

// BenchmarkSchedPop measures one push and one pop against popParked requests
// parked across popClasses LUN classes: the per-dispatch cost of the class
// machinery itself (maintenance plus the merge walk past sleeping classes).
func BenchmarkSchedPop(b *testing.B) {
	for name, p := range schedPopPolicies() {
		b.Run(name, func(b *testing.B) {
			pop := schedPopRig(b, p)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pop(i)
			}
		})
	}
}

// TestClassParkReusesList drives one wait-class as a long-lived queue: each
// round parks a new arrival at the back and serves the head, so the list
// never empties while its head keeps advancing. Parking must slide the live
// entries down rather than grow the list, keep them in arrival order, and
// allocate nothing once the list has its working size.
func TestClassParkReusesList(t *testing.T) {
	const live = 5
	var q queue
	g := &lunGate{}
	reqs := make([]*iface.Request, 64)
	for i := range reqs {
		reqs[i] = &iface.Request{ID: uint64(i)}
	}
	seq := uint64(0)
	park := func() {
		q.classPark(0, qent{reqs[seq%uint64(len(reqs))], seq}, g)
		seq++
	}
	for i := 0; i < live; i++ {
		park()
	}
	round := func() {
		park()
		cl := &q.classes[0]
		want := seq - live - 1
		if got := cl.ents[cl.head].seq; got != want {
			t.Fatalf("head seq %d, want %d", got, want)
		}
		q.classRemoveAt(0, cl.head)
	}
	for i := 0; i < 100; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Fatalf("%.2f allocs per park+serve round, want 0", allocs)
	}
	cl := &q.classes[0]
	if n := len(cl.ents) - cl.head; n != live {
		t.Fatalf("%d live entries, want %d", n, live)
	}
	if c := cap(cl.ents); c > 4*live {
		t.Fatalf("class list capacity grew to %d for %d live entries", c, live)
	}
}
