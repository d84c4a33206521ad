package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"eagletree/internal/iface"
	"eagletree/internal/sim"
)

// modelGate is a Gate over explicit shared predicates, honoring the contract
// the controller provides: every member of a wait-class waits on the same
// condition (one member's failure proves the whole class undispatchable), a
// class's token moves whenever its condition may have cleared, and its
// stable token moves whenever a member's wait may have changed identity.
// Evaluate agrees exactly with the plain canRun predicate over the same
// state, so a policy popped through the gate must select exactly what a
// reference oracle scanning every queued request under canRun selects.
type modelGate struct {
	class   map[uint64]int  // request ID → wait-class; absent = unclassed
	solo    map[uint64]bool // unclassed requests currently blocked
	blocked [8]bool         // the per-class shared condition
	tokens  [8]uint64
	stable  [8]uint64
}

func newModelGate() *modelGate {
	return &modelGate{class: make(map[uint64]int), solo: make(map[uint64]bool)}
}

func (m *modelGate) canRun(r *iface.Request) bool {
	if c, ok := m.class[r.ID]; ok {
		return !m.blocked[c]
	}
	return !m.solo[r.ID]
}

func (m *modelGate) Evaluate(r *iface.Request) (bool, int) {
	if c, ok := m.class[r.ID]; ok {
		if m.blocked[c] {
			return false, c
		}
		return true, -1
	}
	if m.solo[r.ID] {
		return false, -1 // unclassed failure: stays in the scan path
	}
	return true, -1
}

func (m *modelGate) ClassToken(c int) uint64  { return m.tokens[c] }
func (m *modelGate) ClassStable(c int) uint64 { return m.stable[c] }

// toggle flips a class's shared condition, bumping its wake token — the way
// a LUN going idle (or busy) moves the controller's epoch.
func (m *modelGate) toggle(c int) {
	m.blocked[c] = !m.blocked[c]
	m.tokens[c]++
}

// moveOne reassigns one member of class c to class nc (or to unclassed when
// nc < 0) and bumps c's stable token: that member's wait changed identity,
// the way a read retargets when its page is remapped.
func (m *modelGate) moveOne(c, nc int, soloBlocked bool) {
	for id, cl := range m.class {
		if cl != c {
			continue
		}
		if nc < 0 {
			delete(m.class, id)
			if soloBlocked {
				m.solo[id] = true
			}
		} else {
			m.class[id] = nc
		}
		m.stable[c]++
		return
	}
}

// forget drops a popped request from the model.
func (m *modelGate) forget(id uint64) {
	delete(m.class, id)
	delete(m.solo, id)
}

// refOracle is a brute-force reference scheduler: pick scans an
// arrival-ordered slice of every queued request under a plain readiness
// predicate and returns the index to dispatch, or -1. It is the selection
// rule each policy implements, written without buckets, wait-classes or
// cursors, so the classed machinery has something independent to match.
type refOracle interface {
	pick(q []*iface.Request, now sim.Time, canRun func(*iface.Request) bool) int
}

// fifoRef picks the earliest runnable request.
type fifoRef struct{}

func (fifoRef) pick(q []*iface.Request, _ sim.Time, canRun func(*iface.Request) bool) int {
	for i, r := range q {
		if canRun(r) {
			return i
		}
	}
	return -1
}

// prioRef picks the highest-scoring runnable request, earliest on ties. Only
// the score function of p is used.
type prioRef struct{ p *Priority }

func (o prioRef) pick(q []*iface.Request, _ sim.Time, canRun func(*iface.Request) bool) int {
	best := -1
	for i, r := range q {
		if canRun(r) && (best < 0 || o.p.score(r) > o.p.score(q[best])) {
			best = i
		}
	}
	return best
}

// deadlineRef serves the earliest overdue deadline first (earliest arrival
// on ties), else the fallback's pick among fresh requests, with the
// consecutive-overdue cap. Only the deadlines and cap of d are used.
type deadlineRef struct {
	d          *Deadline
	fallback   refOracle
	overdueRun int
}

func (o *deadlineRef) pick(q []*iface.Request, now sim.Time, canRun func(*iface.Request) bool) int {
	overdue := func() int {
		best, bestDL := -1, sim.Never
		for i, r := range q {
			if dl := o.d.deadlineFor(r); dl <= now && canRun(r) && dl < bestDL {
				best, bestDL = i, dl
			}
		}
		return best
	}
	preempt := o.d.MaxConsecutiveOverdue <= 0 || o.overdueRun < o.d.MaxConsecutiveOverdue
	if preempt {
		if i := overdue(); i >= 0 {
			o.overdueRun++
			return i
		}
	}
	o.overdueRun = 0
	fresh := func(r *iface.Request) bool { return o.d.deadlineFor(r) > now && canRun(r) }
	if i := o.fallback.pick(q, now, fresh); i >= 0 {
		return i
	}
	if preempt {
		return -1
	}
	if i := overdue(); i >= 0 {
		o.overdueRun = 1
		return i
	}
	return -1
}

// fairRef is weighted round-robin across sources: the turn's source keeps
// the turn until it has dispatched its weight, sources without a runnable
// request are skipped, and arrival order rules within a source.
type fairRef struct {
	weights [iface.NumSources]int
	credits [iface.NumSources]int
	turn    iface.Source
}

func (o *fairRef) pick(q []*iface.Request, _ sim.Time, canRun func(*iface.Request) bool) int {
	for tried := 0; tried < int(iface.NumSources); tried++ {
		src := iface.Source((int(o.turn) + tried) % iface.NumSources)
		for i, r := range q {
			if r.Source != src || !canRun(r) {
				continue
			}
			if tried != 0 {
				o.turn = src
				o.credits[src] = 0
			}
			o.credits[src]++
			w := o.weights[src]
			if w <= 0 {
				w = 1
			}
			if o.credits[src] >= w {
				o.credits[src] = 0
				o.turn = iface.Source((int(src) + 1) % iface.NumSources)
			}
			return i
		}
	}
	return -1
}

// oracleCase pairs a policy with the reference oracle for its configuration.
type oracleCase struct {
	policy Policy
	oracle refOracle
}

func oracleCases() []oracleCase {
	dl := func(d *Deadline, fb refOracle) oracleCase {
		cfg := *d
		cfg.Fallback = nil
		if fb == nil {
			fb = fifoRef{}
		}
		return oracleCase{d, &deadlineRef{d: &cfg, fallback: fb}}
	}
	fairW := [iface.NumSources]int{2, 1, 1, 1}
	return []oracleCase{
		{&FIFO{}, fifoRef{}},
		{&Priority{Prefer: PreferReads, Internal: InternalLast}, prioRef{&Priority{Prefer: PreferReads, Internal: InternalLast}}},
		dl(&Deadline{ReadDeadline: 50, WriteDeadline: 200}, nil),
		dl(&Deadline{ReadDeadline: 50, WriteDeadline: 200, MaxConsecutiveOverdue: 2}, nil),
		dl(&Deadline{ReadDeadline: 50, InternalDeadline: 400, Fallback: &Priority{Prefer: PreferReads}}, prioRef{&Priority{Prefer: PreferReads}}),
		dl(&Deadline{ReadDeadline: 50, WriteDeadline: 200, MaxConsecutiveOverdue: 1, Fallback: &Priority{Internal: InternalFirst}},
			prioRef{&Priority{Internal: InternalFirst}}),
		{&Fair{Weights: fairW}, &fairRef{weights: fairW}},
	}
}

// TestClassedMatchesPlain drives every policy configuration through a random
// schedule of pushes, condition flips, wait retargets and pops, popping the
// policy through the class-aware gate and its reference oracle through the
// equivalent plain predicate, and requires identical selections throughout.
// This is the determinism contract the controller relies on: parking whole
// wait-classes changes the cost of dispatch, never its order.
func TestClassedMatchesPlain(t *testing.T) {
	for ci := range oracleCases() {
		for seed := int64(1); seed <= 5; seed++ {
			tc := oracleCases()[ci] // fresh policy and oracle state per seed
			pol := tc.policy
			name := fmt.Sprintf("case %d (%s)", ci, pol.Name())
			var ref []*iface.Request
			refPop := func(now sim.Time, canRun func(*iface.Request) bool) *iface.Request {
				i := tc.oracle.pick(ref, now, canRun)
				if i < 0 {
					return nil
				}
				r := ref[i]
				ref = append(ref[:i], ref[i+1:]...)
				return r
			}
			rng := rand.New(rand.NewSource(seed))
			gate := newModelGate()
			now := sim.Time(0)
			nextID := uint64(1)
			for step := 0; step < 3000; step++ {
				switch op := rng.Intn(12); {
				case op < 5: // push
					r := &iface.Request{ID: nextID, Submitted: now}
					nextID++
					if rng.Intn(2) == 0 {
						r.Type = iface.Read
					} else {
						r.Type = iface.Write
					}
					if rng.Intn(4) == 0 {
						r.Source = iface.SourceGC
					}
					switch rng.Intn(4) {
					case 0: // unclassed, runnable
					case 1: // unclassed, individually blocked
						gate.solo[r.ID] = true
					default: // classed: waits on a shared condition
						gate.class[r.ID] = rng.Intn(len(gate.tokens))
					}
					pol.Push(r)
					ref = append(ref, r)
				case op < 6: // a shared condition flips
					gate.toggle(rng.Intn(len(gate.tokens)))
				case op < 7: // one member's wait changes identity
					c := rng.Intn(len(gate.tokens))
					nc := rng.Intn(len(gate.tokens)+1) - 1
					gate.moveOne(c, nc, rng.Intn(2) == 0)
				case op < 8: // an individual block clears or forms
					for id := range gate.solo {
						delete(gate.solo, id)
						break
					}
				case op < 9: // time passes: deadlines become overdue
					now = now.Add(sim.Duration(rng.Intn(100)))
				default: // pop both, compare
					a := refPop(now, gate.canRun)
					b := pol.Pop(now, gate)
					switch {
					case a == nil && b == nil:
					case a == nil || b == nil:
						t.Fatalf("%s seed %d step %d: oracle=%v policy=%v", name, seed, step, a, b)
					case a.ID != b.ID:
						t.Fatalf("%s seed %d step %d: oracle popped %d, policy popped %d", name, seed, step, a.ID, b.ID)
					default:
						gate.forget(a.ID)
					}
				}
				if n := pol.Len(); n != len(ref) {
					t.Fatalf("%s seed %d step %d: Len %d, want %d", name, seed, step, n, len(ref))
				}
			}
			// Drain with every condition clear: both must empty identically.
			for c := range gate.tokens {
				if gate.blocked[c] {
					gate.toggle(c)
				}
			}
			gate.solo = map[uint64]bool{}
			for {
				a := refPop(now, gate.canRun)
				b := pol.Pop(now, gate)
				if a == nil && b == nil {
					break
				}
				if a == nil || b == nil || a.ID != b.ID {
					t.Fatalf("%s seed %d drain: oracle=%v policy=%v", name, seed, a, b)
				}
			}
		}
	}
}
