package eagletree

import (
	"strings"
	"testing"
)

// TestQuickstartFlow mirrors the package doc-comment quickstart end to end
// through the public facade only.
func TestQuickstartFlow(t *testing.T) {
	cfg := SmallConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(s.LogicalPages())
	if n <= 0 {
		t.Fatal("no logical capacity")
	}
	prep := s.Add(&SequentialWriter{From: 0, Count: n, Depth: 32})
	barrier := s.AddBarrier(prep)
	s.Add(&RandomWriter{From: 0, Space: n, Count: n, Depth: 32}, barrier)
	s.Run()
	rep := s.Report()
	if rep.WriteLatency.Count != uint64(n) {
		t.Fatalf("measured %d writes, want %d", rep.WriteLatency.Count, n)
	}
	if !strings.Contains(rep.String(), "throughput") {
		t.Fatal("report rendering broken")
	}
}

func TestDefaultConfigIsValid(t *testing.T) {
	if _, err := New(DefaultConfig()); err != nil {
		t.Fatalf("DefaultConfig rejected: %v", err)
	}
	if _, err := New(SmallConfig()); err != nil {
		t.Fatalf("SmallConfig rejected: %v", err)
	}
}

func TestFacadeExperiment(t *testing.T) {
	def := Experiment{
		Name: "facade-sweep",
		Base: SmallConfig,
		Variants: []Variant{
			{Label: "qd=1", X: 1, Mutate: func(c *Config) { c.OS.QueueDepth = 1 }},
			{Label: "qd=16", X: 16, Mutate: func(c *Config) { c.OS.QueueDepth = 16 }},
		},
		Workload: func(s *Stack, after *Handle) {
			n := int64(s.LogicalPages())
			s.Add(&RandomWriter{From: 0, Space: n, Count: 500, Depth: 16}, after)
		},
	}
	res, err := RunExperiment(def)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	if res.Best(MetricThroughput).Label != "qd=16" {
		t.Fatalf("deeper queue lost the throughput sweep: best=%q", res.Best(MetricThroughput).Label)
	}
}

// TestCustomThreadThroughFacade exercises the Thread extension point: a
// user-defined read-after-write verifier built only on exported API.
func TestCustomThreadThroughFacade(t *testing.T) {
	type verifier struct {
		FuncThread
	}
	var wrote, read int
	v := &FuncThread{}
	v.F = func(ctx *Ctx) {
		for i := LPN(0); i < 16; i++ {
			ctx.Write(i)
		}
	}
	v.OnDone = func(ctx *Ctx, r *Request) {
		switch r.Type {
		case WriteIO:
			wrote++
			ctx.Read(r.LPN)
		case ReadIO:
			read++
		}
		if ctx.InFlight() == 0 {
			ctx.Finish()
		}
	}
	_ = verifier{}

	s, err := New(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Add(v)
	s.Run()
	if wrote != 16 || read != 16 {
		t.Fatalf("wrote=%d read=%d, want 16/16", wrote, read)
	}
}

// lifo is an SSD policy built only on exported API: the newest runnable
// request goes first. It parks nothing, so WakeRequest has nothing to do,
// and blocked requests can stay in the slice because the gate refuses them
// until they are unblocked.
type lifo struct {
	q    []*Request
	pops int
}

var _ SSDPolicy = (*lifo)(nil)

func (*lifo) Name() string              { return "lifo" }
func (l *lifo) Push(r *Request)         { l.q = append(l.q, r) }
func (l *lifo) PushBlocked(r *Request)  { l.q = append(l.q, r) }
func (*lifo) Unblock(*Request)          {}
func (*lifo) WakeRequest(*Request, int) {}
func (l *lifo) Len() int                { return len(l.q) }
func (l *lifo) Pop(_ Time, g SSDGate) *Request {
	for i := len(l.q) - 1; i >= 0; i-- {
		if ok, _ := g.Evaluate(l.q[i]); ok {
			r := l.q[i]
			l.q = append(l.q[:i], l.q[i+1:]...)
			l.pops++
			return r
		}
	}
	return nil
}

// TestCustomSSDPolicyThroughFacade: a scheduler written outside the module
// plugs into the controller and serves a write-then-read workload to
// completion.
func TestCustomSSDPolicyThroughFacade(t *testing.T) {
	cfg := SmallConfig()
	pol := &lifo{}
	cfg.Controller.Policy = pol
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wrote, read int
	v := &FuncThread{}
	v.F = func(ctx *Ctx) {
		for i := LPN(0); i < 64; i++ {
			ctx.Write(i)
		}
	}
	v.OnDone = func(ctx *Ctx, r *Request) {
		switch r.Type {
		case WriteIO:
			wrote++
			ctx.Read(r.LPN)
		case ReadIO:
			read++
		}
		if ctx.InFlight() == 0 {
			ctx.Finish()
		}
	}
	s.Add(v)
	s.Run()
	if wrote != 64 || read != 64 {
		t.Fatalf("wrote=%d read=%d, want 64/64", wrote, read)
	}
	if pol.pops < 128 || pol.Len() != 0 {
		t.Fatalf("custom policy popped %d with %d left queued", pol.pops, pol.Len())
	}
}

func TestOpenInterfaceThroughFacade(t *testing.T) {
	cfg := SmallConfig()
	cfg.Controller.OpenInterface = true
	cfg.Controller.Policy = &SSDPriority{UseTags: true}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	published := false
	s.Add(&FuncThread{F: func(ctx *Ctx) {
		published = ctx.Publish(PriorityHint{Thread: 0, Priority: PriorityHigh})
		ctx.Write(1)
	}})
	s.Run()
	if !published {
		t.Fatal("open bus did not deliver the hint")
	}
}

func TestTimingPresets(t *testing.T) {
	slc, mlc := TimingSLC(), TimingMLC()
	if mlc.PageWrite <= slc.PageWrite {
		t.Fatal("MLC programs faster than SLC")
	}
	if mlc.EnduranceLimit >= slc.EnduranceLimit {
		t.Fatal("MLC endures more than SLC")
	}
	if err := slc.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := mlc.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsExtractValues(t *testing.T) {
	s, err := New(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := int64(s.LogicalPages())
	s.Add(&SequentialWriter{From: 0, Count: n, Depth: 16})
	s.Run()
	rep := s.Report()
	for _, m := range []Metric{
		MetricThroughput, MetricWriteMean, MetricWriteP99, MetricWriteStd, MetricWA,
	} {
		if v := m.F(rep); v < 0 {
			t.Errorf("%s = %f, want >= 0", m.Name, v)
		}
	}
	if MetricThroughput.F(rep) == 0 {
		t.Fatal("zero throughput on a full fill")
	}
}

// TestMLCSlowerThanSLC is an end-to-end sanity check of the timing model
// through the whole stack.
func TestMLCSlowerThanSLC(t *testing.T) {
	run := func(timing Timing) float64 {
		cfg := SmallConfig()
		cfg.Controller.Timing = timing
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := int64(s.LogicalPages())
		s.Add(&SequentialWriter{From: 0, Count: n, Depth: 32})
		s.Run()
		return s.Report().Throughput
	}
	slc, mlc := run(TimingSLC()), run(TimingMLC())
	if mlc >= slc {
		t.Fatalf("MLC throughput %.0f >= SLC %.0f", mlc, slc)
	}
}

func TestBloomDetectorFacade(t *testing.T) {
	// Hot means "written in enough recent decay windows": hammer one page
	// across several windows (default window = 1024 writes) among unique
	// cold traffic.
	d := NewBloomDetector()
	for i := 0; i < 3000; i++ {
		if i%2 == 0 {
			d.RecordWrite(7)
		} else {
			d.RecordWrite(LPN(1000 + i))
		}
	}
	if d.Classify(7) != TempHot {
		t.Fatal("hammered page not classified hot")
	}
	if d.Classify(999999) == TempHot {
		t.Fatal("never-written page classified hot")
	}
}
