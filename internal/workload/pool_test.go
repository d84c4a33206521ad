package workload

import (
	"testing"

	"eagletree/internal/iface"
	"eagletree/internal/osched"
	"eagletree/internal/sim"
)

// holdDevice queues every request it receives until the test completes it,
// allocating nothing once its slice has grown.
type holdDevice struct{ held []*iface.Request }

func (d *holdDevice) Submit(r *iface.Request) { d.held = append(d.held, r) }

// idleThread keeps the request its Init issues in flight until a test
// completes it, so the thread stays alive while the test drives its Ctx
// directly. onComplete, when set, runs on every completion.
type idleThread struct {
	ctx        *Ctx
	onComplete func(ctx *Ctx, r *iface.Request)
}

func (t *idleThread) Init(ctx *Ctx) { t.ctx = ctx; ctx.Write(0) }
func (t *idleThread) OnComplete(ctx *Ctx, r *iface.Request) {
	if t.onComplete != nil {
		t.onComplete(ctx, r)
	}
}

// submitRig wires a Runner to a holding device and returns a step that
// submits one write and completes it through the OS.
func submitRig(t *testing.T, th *idleThread) (*Runner, *holdDevice, func()) {
	t.Helper()
	eng := sim.NewEngine()
	dev := &holdDevice{held: make([]*iface.Request, 0, 8)}
	os, err := osched.New(eng, dev, osched.Config{QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	runner := NewRunner(eng, os, iface.NewBus(), 1)
	runner.Add(th)
	runner.Start()
	eng.RunUntilIdle()
	if th.ctx == nil || len(dev.held) != 1 {
		t.Fatalf("thread did not start: ctx %v, %d requests held", th.ctx, len(dev.held))
	}
	lpn := iface.LPN(1)
	return runner, dev, func() {
		th.ctx.Write(lpn)
		lpn++
		eng.RunUntilIdle()
		n := len(dev.held) - 1
		r := dev.held[n]
		dev.held = dev.held[:n]
		os.Completed(r)
		eng.RunUntilIdle()
	}
}

// TestCtxSubmitAllocs guards the application submit path's zero-allocation
// contract: once a completed request is back in the Runner's pool, the next
// Submit reuses it.
func TestCtxSubmitAllocs(t *testing.T) {
	_, _, step := submitRig(t, &idleThread{})
	step()
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("%.2f allocs per submit+complete, want 0", allocs)
	}
}

// TestSubmitReusesCompletedRequest pins the ownership rule: a request stays
// the thread's while its OnComplete runs (an IO submitted from there gets a
// different request), goes back to the pool when OnComplete returns, and the
// next Submit hands it out again fully reset.
func TestSubmitReusesCompletedRequest(t *testing.T) {
	th := &idleThread{}
	var inCallback *iface.Request
	th.onComplete = func(ctx *Ctx, r *iface.Request) {
		if inCallback = ctx.Read(r.LPN); inCallback == r {
			t.Errorf("a Submit inside OnComplete reused the request being completed")
		}
	}
	runner, dev, _ := submitRig(t, th)
	first := dev.held[0]
	dev.held = dev.held[:0]
	first.Tags.Priority = iface.PriorityHigh
	runner.os.Completed(first)
	if inCallback == nil {
		t.Fatal("OnComplete did not run")
	}
	th.onComplete = nil
	next := th.ctx.Trim(7)
	if next != first {
		t.Fatalf("Submit allocated %p instead of reusing the completed request %p", next, first)
	}
	want := iface.Request{ID: next.ID, Type: iface.Trim, LPN: 7, Source: iface.SourceApp, Thread: th.ctx.ID(), Submitted: next.Submitted}
	if *next != want {
		t.Fatalf("reused request = %+v, want %+v", *next, want)
	}
}
