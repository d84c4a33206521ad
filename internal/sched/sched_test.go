package sched

import (
	"testing"

	"eagletree/internal/iface"
	"eagletree/internal/sim"
)

func req(id uint64, t iface.ReqType, src iface.Source) *iface.Request {
	return &iface.Request{ID: id, Type: t, Source: src}
}

// runAll and yes are plain predicates passed to Pop as never-parking gates.
var (
	runAll = predGate(func(*iface.Request) bool { return false })
	yes    = predGate(func(*iface.Request) bool { return true })
)

func TestFIFOOrder(t *testing.T) {
	var f FIFO
	f.Push(req(1, iface.Read, iface.SourceApp))
	f.Push(req(2, iface.Write, iface.SourceApp))
	f.Push(req(3, iface.Read, iface.SourceApp))
	var got []uint64
	for f.Len() > 0 {
		got = append(got, f.Pop(0, yes).ID)
	}
	for i, want := range []uint64{1, 2, 3} {
		if got[i] != want {
			t.Fatalf("order %v", got)
		}
	}
}

func TestFIFOSkipsBlocked(t *testing.T) {
	var f FIFO
	f.Push(req(1, iface.Read, iface.SourceApp))
	f.Push(req(2, iface.Write, iface.SourceApp))
	r := f.Pop(0, predGate(func(r *iface.Request) bool { return r.ID == 2 }))
	if r == nil || r.ID != 2 {
		t.Fatalf("Pop = %v, want req 2", r)
	}
	if f.Len() != 1 {
		t.Fatalf("Len = %d", f.Len())
	}
}

func TestFIFONilWhenNothingRunnable(t *testing.T) {
	var f FIFO
	f.Push(req(1, iface.Read, iface.SourceApp))
	if r := f.Pop(0, runAll); r != nil {
		t.Fatalf("Pop = %v, want nil", r)
	}
	if f.Len() != 1 {
		t.Fatal("non-runnable request was dropped")
	}
}

func TestPriorityPreferReads(t *testing.T) {
	p := &Priority{Prefer: PreferReads}
	p.Push(req(1, iface.Write, iface.SourceApp))
	p.Push(req(2, iface.Read, iface.SourceApp))
	if r := p.Pop(0, yes); r.ID != 2 {
		t.Fatalf("got %d, want the read", r.ID)
	}
}

func TestPriorityPreferWrites(t *testing.T) {
	p := &Priority{Prefer: PreferWrites}
	p.Push(req(1, iface.Read, iface.SourceApp))
	p.Push(req(2, iface.Write, iface.SourceApp))
	if r := p.Pop(0, yes); r.ID != 2 {
		t.Fatalf("got %d, want the write", r.ID)
	}
}

func TestPriorityTieBreaksFIFO(t *testing.T) {
	p := &Priority{Prefer: PreferReads}
	p.Push(req(1, iface.Read, iface.SourceApp))
	p.Push(req(2, iface.Read, iface.SourceApp))
	if r := p.Pop(0, yes); r.ID != 1 {
		t.Fatalf("tie broke to %d, want arrival order", r.ID)
	}
}

func TestPriorityInternalLast(t *testing.T) {
	p := &Priority{Internal: InternalLast}
	p.Push(req(1, iface.Write, iface.SourceGC))
	p.Push(req(2, iface.Write, iface.SourceApp))
	if r := p.Pop(0, yes); r.ID != 2 {
		t.Fatalf("got %d, want app write before GC", r.ID)
	}
}

func TestPriorityInternalFirst(t *testing.T) {
	p := &Priority{Internal: InternalFirst}
	p.Push(req(1, iface.Write, iface.SourceApp))
	p.Push(req(2, iface.Write, iface.SourceGC))
	if r := p.Pop(0, yes); r.ID != 2 {
		t.Fatalf("got %d, want GC first", r.ID)
	}
}

func TestPriorityTagDominates(t *testing.T) {
	p := &Priority{Prefer: PreferWrites, UseTags: true}
	p.Push(req(1, iface.Write, iface.SourceApp)) // normal priority write
	hi := req(2, iface.Read, iface.SourceApp)
	hi.Tags.Priority = iface.PriorityHigh
	p.Push(hi)
	if r := p.Pop(0, yes); r.ID != 2 {
		t.Fatalf("got %d, want high-priority tag to beat type preference", r.ID)
	}
}

func TestPriorityTagIgnoredWhenLocked(t *testing.T) {
	p := &Priority{Prefer: PreferWrites, UseTags: false}
	p.Push(req(1, iface.Write, iface.SourceApp))
	hi := req(2, iface.Read, iface.SourceApp)
	hi.Tags.Priority = iface.PriorityHigh
	p.Push(hi)
	if r := p.Pop(0, yes); r.ID != 1 {
		t.Fatalf("got %d; block-device mode must ignore tags", r.ID)
	}
}

func TestDeadlineOverdueFirst(t *testing.T) {
	d := &Deadline{ReadDeadline: 100, WriteDeadline: 1000}
	w := req(1, iface.Write, iface.SourceApp)
	w.Submitted = 0
	r := req(2, iface.Read, iface.SourceApp)
	r.Submitted = 50
	d.Push(w)
	d.Push(r)
	// At t=200 the read (deadline 150) is overdue, the write (1000) is not.
	if got := d.Pop(200, yes); got.ID != 2 {
		t.Fatalf("got %d, want overdue read", got.ID)
	}
	// At t=60 nothing is overdue: FIFO fallback -> write first.
	d.Push(r)
	if got := d.Pop(60, yes); got.ID != 1 {
		t.Fatalf("got %d, want FIFO order when nothing overdue", got.ID)
	}
}

func TestDeadlineEarliestOverdueWins(t *testing.T) {
	d := &Deadline{ReadDeadline: 100}
	a := req(1, iface.Read, iface.SourceApp)
	a.Submitted = 50 // deadline 150
	b := req(2, iface.Read, iface.SourceApp)
	b.Submitted = 0 // deadline 100
	d.Push(a)
	d.Push(b)
	if got := d.Pop(500, yes); got.ID != 2 {
		t.Fatalf("got %d, want earliest deadline", got.ID)
	}
}

func TestDeadlineZeroMeansNone(t *testing.T) {
	d := &Deadline{} // no deadlines at all
	a := req(1, iface.Write, iface.SourceApp)
	d.Push(a)
	if got := d.Pop(sim.Time(1<<40), yes); got.ID != 1 {
		t.Fatal("fallback did not serve request")
	}
}

func TestDeadlineWithPriorityFallback(t *testing.T) {
	d := &Deadline{ReadDeadline: 1 * sim.Time(sim.Second).Sub(0), Fallback: &Priority{Prefer: PreferReads}}
	w := req(1, iface.Write, iface.SourceApp)
	r := req(2, iface.Read, iface.SourceApp)
	d.Push(w)
	d.Push(r)
	if got := d.Pop(0, yes); got.ID != 2 {
		t.Fatalf("got %d, want fallback to prefer reads", got.ID)
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d after one pop", d.Len())
	}
	if got := d.Pop(0, yes); got.ID != 1 {
		t.Fatalf("second pop = %d", got.ID)
	}
}

func TestDeadlineInternal(t *testing.T) {
	d := &Deadline{InternalDeadline: 100}
	g := req(1, iface.Write, iface.SourceGC)
	g.Submitted = 0
	a := req(2, iface.Write, iface.SourceApp)
	a.Submitted = 0
	d.Push(a)
	d.Push(g)
	if got := d.Pop(150, yes); got.ID != 1 {
		t.Fatalf("got %d, want overdue GC write", got.ID)
	}
}

func TestFairAlternatesSources(t *testing.T) {
	f := &Fair{}
	for i := 0; i < 3; i++ {
		f.Push(req(uint64(10+i), iface.Write, iface.SourceApp))
		f.Push(req(uint64(20+i), iface.Write, iface.SourceGC))
	}
	var srcs []iface.Source
	for f.Len() > 0 {
		srcs = append(srcs, f.Pop(0, yes).Source)
	}
	// Weight 1 each: app, gc, app, gc, ...
	for i := 1; i < len(srcs); i++ {
		if srcs[i] == srcs[i-1] {
			t.Fatalf("fair policy served %v twice in a row: %v", srcs[i], srcs)
		}
	}
}

func TestFairWeights(t *testing.T) {
	f := &Fair{}
	f.Weights[iface.SourceApp] = 2
	for i := 0; i < 4; i++ {
		f.Push(req(uint64(10+i), iface.Write, iface.SourceApp))
	}
	for i := 0; i < 2; i++ {
		f.Push(req(uint64(20+i), iface.Write, iface.SourceGC))
	}
	var srcs []iface.Source
	for f.Len() > 0 {
		srcs = append(srcs, f.Pop(0, yes).Source)
	}
	want := []iface.Source{iface.SourceApp, iface.SourceApp, iface.SourceGC, iface.SourceApp, iface.SourceApp, iface.SourceGC}
	for i := range want {
		if srcs[i] != want[i] {
			t.Fatalf("weighted order %v, want %v", srcs, want)
		}
	}
}

func TestFairSkipsEmptySources(t *testing.T) {
	f := &Fair{}
	f.Push(req(1, iface.Write, iface.SourceWL))
	if r := f.Pop(0, yes); r == nil || r.ID != 1 {
		t.Fatal("fair policy starved the only source")
	}
}

func TestPolicyNamesDistinct(t *testing.T) {
	names := map[string]bool{}
	for _, p := range []Policy{
		&FIFO{},
		&Priority{Prefer: PreferReads},
		&Priority{Prefer: PreferWrites},
		&Deadline{},
		&Fair{},
	} {
		if names[p.Name()] {
			t.Fatalf("duplicate policy name %q", p.Name())
		}
		names[p.Name()] = true
	}
}
