package osched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"eagletree/internal/iface"
)

// TestFIFOMatchesSliceQueue drives the head-indexed FIFO and a plain
// reslicing queue through the same random push/pop sequence: every pop must
// return the same request and Len must agree throughout, across the
// rewind-on-drain and slide-down-when-full paths.
func TestFIFOMatchesSliceQueue(t *testing.T) {
	f := func(ops []bool) bool {
		var fifo FIFO
		var ref []*iface.Request
		id := uint64(0)
		for _, push := range ops {
			if push {
				id++
				r := &iface.Request{ID: id}
				fifo.Push(r)
				ref = append(ref, r)
			} else {
				got := fifo.Pop(0)
				var want *iface.Request
				if len(ref) > 0 {
					want, ref = ref[0], ref[1:]
				}
				if got != want {
					t.Logf("pop returned %v, want %v", got, want)
					return false
				}
			}
			if fifo.Len() != len(ref) {
				t.Logf("Len %d, want %d", fifo.Len(), len(ref))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// fifoRig returns a FIFO holding depth requests and a step that pushes one
// and pops one: a pool that never drains, the case a reslicing queue
// reallocated on.
func fifoRig(depth int) (*FIFO, func()) {
	f := &FIFO{}
	reqs := make([]*iface.Request, depth+1)
	for i := range reqs {
		reqs[i] = &iface.Request{ID: uint64(i)}
	}
	for _, r := range reqs[:depth] {
		f.Push(r)
	}
	i := depth
	return f, func() {
		f.Push(reqs[i%len(reqs)])
		f.Pop(0)
		i++
	}
}

// TestFIFOPushPopAllocs guards the OS FIFO's zero-allocation contract in
// steady state, both for a pool that drains between requests and for one
// that always holds a backlog.
func TestFIFOPushPopAllocs(t *testing.T) {
	for _, depth := range []int{0, 31} {
		f, step := fifoRig(depth)
		step()
		if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
			t.Errorf("depth %d: %.2f allocs per push+pop, want 0", depth, allocs)
		}
		if f.Len() != depth {
			t.Errorf("depth %d: Len %d after the run", depth, f.Len())
		}
	}
}

// BenchmarkOSchedFIFO measures one push and one pop against a pool holding
// a standing backlog of 31 requests.
func BenchmarkOSchedFIFO(b *testing.B) {
	_, step := fifoRig(31)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
