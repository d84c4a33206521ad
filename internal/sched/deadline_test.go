package sched

import (
	"math/rand"
	"testing"

	"eagletree/internal/iface"
	"eagletree/internal/sim"
)

var always = predGate(func(*iface.Request) bool { return true })

func dlRead(id uint64, sub sim.Time) *iface.Request {
	return &iface.Request{ID: id, Type: iface.Read, Submitted: sub}
}

func dlWrite(id uint64, sub sim.Time) *iface.Request {
	return &iface.Request{ID: id, Type: iface.Write, Submitted: sub}
}

// With no cap, an overdue backlog is drained completely before any fresh
// request is served.
func TestDeadlineUnboundedPreemption(t *testing.T) {
	d := &Deadline{ReadDeadline: sim.Microsecond, WriteDeadline: sim.Second}
	for i := uint64(1); i <= 4; i++ {
		d.Push(dlRead(i, 0)) // overdue at now
	}
	d.Push(dlWrite(100, 0)) // fresh for a long time
	now := sim.Time(10 * sim.Microsecond)
	var order []uint64
	for {
		r := d.Pop(now, always)
		if r == nil {
			break
		}
		order = append(order, r.ID)
	}
	want := []uint64{1, 2, 3, 4, 100}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// With a cap of 2, every third dispatch admits a fresh request even while
// overdue work remains.
func TestDeadlineOverdueCapAdmitsFresh(t *testing.T) {
	d := &Deadline{ReadDeadline: sim.Microsecond, WriteDeadline: sim.Second, MaxConsecutiveOverdue: 2}
	for i := uint64(1); i <= 4; i++ {
		d.Push(dlRead(i, 0))
	}
	d.Push(dlWrite(100, 0))
	d.Push(dlWrite(101, 0))
	now := sim.Time(10 * sim.Microsecond)
	var order []uint64
	for {
		r := d.Pop(now, always)
		if r == nil {
			break
		}
		order = append(order, r.ID)
	}
	want := []uint64{1, 2, 100, 3, 4, 101}
	if len(order) != len(want) {
		t.Fatalf("popped %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// When the cap demands a fresh request but none is runnable, the device must
// not idle: overdue work continues.
func TestDeadlineCapDoesNotIdleDevice(t *testing.T) {
	d := &Deadline{ReadDeadline: sim.Microsecond, MaxConsecutiveOverdue: 1}
	d.Push(dlRead(1, 0))
	d.Push(dlRead(2, 0))
	d.Push(dlRead(3, 0))
	now := sim.Time(10 * sim.Microsecond)
	popped := 0
	for {
		if d.Pop(now, always) == nil {
			break
		}
		popped++
	}
	if popped != 3 {
		t.Fatalf("popped %d of 3 with an all-overdue queue", popped)
	}
}

// The overdue run counter resets once the backlog drains.
func TestDeadlineRunCounterResets(t *testing.T) {
	d := &Deadline{ReadDeadline: sim.Microsecond, WriteDeadline: sim.Second, MaxConsecutiveOverdue: 2}
	now := sim.Time(10 * sim.Microsecond)
	d.Push(dlRead(1, 0))
	d.Push(dlWrite(50, 0))
	if got := d.Pop(now, always); got.ID != 1 {
		t.Fatalf("first pop %d", got.ID)
	}
	if got := d.Pop(now, always); got.ID != 50 {
		t.Fatalf("second pop %d", got.ID)
	}
	// New overdue burst: the cap window must be fresh (2 overdue in a row).
	d.Push(dlRead(2, 0))
	d.Push(dlRead(3, 0))
	d.Push(dlWrite(51, 0))
	if got := d.Pop(now, always); got.ID != 2 {
		t.Fatalf("third pop %d", got.ID)
	}
	if got := d.Pop(now, always); got.ID != 3 {
		t.Fatalf("fourth pop %d, cap window did not reset", got.ID)
	}
	if got := d.Pop(now, always); got.ID != 51 {
		t.Fatalf("fifth pop %d", got.ID)
	}
}

// With every deadline 0 nothing is ever overdue, so a Deadline pops exactly
// like its Fallback alone under the same gate, for each fallback that keeps
// no ordering state across pops.
func TestDeadlineWithoutDeadlinesIsItsFallback(t *testing.T) {
	for _, mk := range []func() Policy{
		func() Policy { return &FIFO{} },
		func() Policy { return &Priority{Prefer: PreferReads, Internal: InternalLast, UseTags: true} },
	} {
		d, alone := &Deadline{Fallback: mk()}, mk()
		rng := rand.New(rand.NewSource(1))
		gate := newModelGate()
		for step := 0; step < 2000; step++ {
			switch rng.Intn(4) {
			case 0, 1:
				r := &iface.Request{ID: uint64(step + 1), Type: iface.Write, Source: iface.Source(rng.Intn(int(iface.NumSources)))}
				if rng.Intn(2) == 0 {
					r.Type = iface.Read
				}
				if rng.Intn(3) == 0 {
					r.Tags.Priority = iface.PriorityHigh
				}
				if rng.Intn(2) == 0 {
					gate.class[r.ID] = rng.Intn(len(gate.tokens))
				}
				d.Push(r)
				alone.Push(r)
			case 2:
				gate.toggle(rng.Intn(len(gate.tokens)))
			default:
				now := sim.Time(step) * sim.Time(sim.Second)
				a, b := alone.Pop(now, gate), d.Pop(now, gate)
				if a != b {
					t.Fatalf("%s step %d: fallback alone popped %v, deadline popped %v", alone.Name(), step, a, b)
				}
				if a != nil {
					gate.forget(a.ID)
				}
			}
		}
	}
}
