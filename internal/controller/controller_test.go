package controller

import (
	"testing"

	"eagletree/internal/flash"
	"eagletree/internal/gc"
	"eagletree/internal/iface"
	"eagletree/internal/sched"
	"eagletree/internal/sim"
	"eagletree/internal/stats"
)

// rig bundles a controller with its engine and completion capture.
type rig struct {
	eng  *sim.Engine
	bus  *iface.Bus
	col  *stats.Collector
	ctl  *Controller
	done []*iface.Request
	id   uint64
}

func smallGeo() flash.Geometry {
	return flash.Geometry{Channels: 2, LUNsPerChannel: 2, BlocksPerLUN: 16, PagesPerBlock: 8, PageSize: 4096}
}

func newRig(t *testing.T, mutate func(*Config)) *rig {
	t.Helper()
	r := &rig{eng: sim.NewEngine(), bus: iface.NewBus(), col: stats.NewCollector(0, 0)}
	cfg := Config{
		Geometry:      smallGeo(),
		Timing:        flash.TimingSLC(),
		Overprovision: 0.25,
		GCGreediness:  2,
		WL:            WLOff(),
	}
	cfg.OnComplete = func(req *iface.Request) { r.done = append(r.done, req) }
	if mutate != nil {
		mutate(&cfg)
	}
	ctl, err := New(r.eng, r.bus, r.col, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.ctl = ctl
	return r
}

func (r *rig) submit(t iface.ReqType, lpn iface.LPN) *iface.Request {
	r.id++
	req := &iface.Request{ID: r.id, Type: t, LPN: lpn, Source: iface.SourceApp, Submitted: r.eng.Now()}
	r.ctl.Submit(req)
	return req
}

func (r *rig) run() { r.eng.RunUntilIdle() }

func TestControllerWriteThenRead(t *testing.T) {
	r := newRig(t, nil)
	w := r.submit(iface.Write, 5)
	r.run()
	rd := r.submit(iface.Read, 5)
	r.run()
	if len(r.done) != 2 {
		t.Fatalf("completed %d requests, want 2", len(r.done))
	}
	if w.Completed == 0 || rd.Completed == 0 {
		t.Fatal("requests missing completion stamps")
	}
	tm := flash.TimingSLC()
	wantW := tm.Cmd + tm.Transfer + tm.PageWrite
	if w.Latency() != wantW {
		t.Errorf("write latency %v, want %v on an idle device", w.Latency(), wantW)
	}
	wantR := tm.Cmd + tm.PageRead + tm.Transfer
	if rd.Latency() != wantR {
		t.Errorf("read latency %v, want %v on an idle device", rd.Latency(), wantR)
	}
}

func TestControllerUnmappedRead(t *testing.T) {
	r := newRig(t, nil)
	rd := r.submit(iface.Read, 99)
	r.run()
	if rd.Completed == 0 {
		t.Fatal("unmapped read never completed")
	}
	if r.ctl.Counters().UnmappedReads != 1 {
		t.Fatalf("UnmappedReads = %d", r.ctl.Counters().UnmappedReads)
	}
	if got := r.ctl.Array().Counters().Reads; got != 0 {
		t.Fatalf("unmapped read touched flash %d times", got)
	}
}

func TestControllerOverwriteInvalidatesOldPage(t *testing.T) {
	r := newRig(t, nil)
	r.submit(iface.Write, 7)
	r.run()
	first, _ := r.ctl.Mapper().Lookup(7)
	r.submit(iface.Write, 7)
	r.run()
	second, _ := r.ctl.Mapper().Lookup(7)
	if first == second {
		t.Fatal("overwrite did not relocate the page")
	}
	if st := r.ctl.Array().PageState(first); st != flash.PageInvalid {
		t.Fatalf("old page state %v, want invalid", st)
	}
	if st := r.ctl.Array().PageState(second); st != flash.PageValid {
		t.Fatalf("new page state %v, want valid", st)
	}
}

func TestControllerTrim(t *testing.T) {
	r := newRig(t, nil)
	r.submit(iface.Write, 3)
	r.run()
	old, _ := r.ctl.Mapper().Lookup(3)
	r.submit(iface.Trim, 3)
	r.run()
	if _, ok := r.ctl.Mapper().Lookup(3); ok {
		t.Fatal("trimmed LPN still mapped")
	}
	if st := r.ctl.Array().PageState(old); st != flash.PageInvalid {
		t.Fatalf("trimmed page state %v", st)
	}
	if r.ctl.Counters().AppTrims != 1 {
		t.Fatalf("AppTrims = %d", r.ctl.Counters().AppTrims)
	}
}

func TestControllerParallelWritesSpreadOverLUNs(t *testing.T) {
	r := newRig(t, nil)
	for i := 0; i < 8; i++ {
		r.submit(iface.Write, iface.LPN(i))
	}
	start := r.eng.Now()
	r.run()
	elapsed := r.eng.Now().Sub(start)
	tm := flash.TimingSLC()
	oneWrite := tm.Cmd + tm.Transfer + tm.PageWrite
	// 8 writes over 4 LUNs on 2 channels: must beat full serialization by a
	// wide margin (serial would be 8x oneWrite).
	if elapsed >= 5*oneWrite {
		t.Fatalf("8 writes took %v; parallelism broken (one write = %v)", elapsed, oneWrite)
	}
	luns := map[int]bool{}
	for lpn := iface.LPN(0); lpn < 8; lpn++ {
		ppa, ok := r.ctl.Mapper().Lookup(lpn)
		if !ok {
			t.Fatalf("lpn %d unmapped after write", lpn)
		}
		luns[ppa.LUN] = true
	}
	if len(luns) != 4 {
		t.Fatalf("writes landed on %d LUNs, want all 4", len(luns))
	}
}

// fillDevice writes the logical space sequentially once, then overwrites it
// randomly (uFLIP-style preparation): random overwrites fragment the blocks
// so GC victims hold live pages and migrations actually happen.
func fillDevice(t *testing.T, r *rig, passes int) {
	t.Helper()
	n := r.ctl.LogicalPages()
	for lpn := 0; lpn < n; lpn++ {
		r.submit(iface.Write, iface.LPN(lpn))
		// Keep the queue bounded like a real OS would.
		if lpn%16 == 15 {
			r.run()
		}
	}
	r.run()
	rng := sim.NewRNG(42)
	for p := 1; p < passes; p++ {
		for i := 0; i < n; i++ {
			r.submit(iface.Write, iface.LPN(rng.Intn(n)))
			if i%16 == 15 {
				r.run()
			}
		}
		r.run()
	}
}

func TestControllerGCSteadyState(t *testing.T) {
	r := newRig(t, nil)
	fillDevice(t, r, 3)
	c := r.ctl.Counters()
	if c.GCErases == 0 {
		t.Fatal("no GC ran despite 3 overwrite passes at 25% overprovision")
	}
	if c.GCMigratedPages == 0 {
		t.Fatal("GC never migrated a live page")
	}
	wa := r.ctl.WriteAmplification()
	if wa <= 1.0 {
		t.Fatalf("write amplification %v, must exceed 1 under GC", wa)
	}
	if wa > 5 {
		t.Fatalf("write amplification %v implausibly high for uniform traffic", wa)
	}
	// Free space invariant: every LUN ends at or above... the floor may be
	// transiently crossed mid-run, but after the queue drains GC must have
	// restored at least one free block everywhere.
	for lun := 0; lun < smallGeo().LUNs(); lun++ {
		if free := r.ctl.BlockManager().FreeCount(lun); free < 1 {
			t.Fatalf("LUN %d finished with %d free blocks", lun, free)
		}
	}
}

func TestControllerGCNeverLosesData(t *testing.T) {
	r := newRig(t, nil)
	n := r.ctl.LogicalPages()
	// Three full overwrite passes, then verify every LPN still readable.
	fillDevice(t, r, 3)
	r.done = r.done[:0]
	for lpn := 0; lpn < n; lpn++ {
		r.submit(iface.Read, iface.LPN(lpn))
		if lpn%32 == 31 {
			r.run()
		}
	}
	r.run()
	if len(r.done) != n {
		t.Fatalf("%d of %d reads completed", len(r.done), n)
	}
	if r.ctl.Counters().UnmappedReads != 0 {
		t.Fatalf("%d LPNs lost their mapping during GC", r.ctl.Counters().UnmappedReads)
	}
}

func TestControllerGCCopyback(t *testing.T) {
	r := newRig(t, func(cfg *Config) {
		cfg.Features = flash.Features{Copyback: true}
		cfg.GCCopyback = true
	})
	fillDevice(t, r, 3)
	if cb := r.ctl.Array().Counters().Copybacks; cb == 0 {
		t.Fatal("copyback GC never used copyback")
	}
	if r.ctl.Counters().GCMigratedPages == 0 {
		t.Fatal("no pages migrated")
	}
}

func TestControllerDFTLEndToEnd(t *testing.T) {
	r := newRig(t, func(cfg *Config) {
		cfg.Mapping = MapDFTL
		cfg.CMTEntries = 64
		cfg.ReservedTransBlocks = 3
	})
	n := r.ctl.LogicalPages()
	for lpn := 0; lpn < n; lpn++ {
		r.submit(iface.Write, iface.LPN(lpn))
		if lpn%16 == 15 {
			r.run()
		}
	}
	r.run()
	r.done = r.done[:0]
	for lpn := 0; lpn < n; lpn += 7 {
		r.submit(iface.Read, iface.LPN(lpn))
	}
	r.run()
	if r.ctl.Counters().UnmappedReads != 0 {
		t.Fatal("DFTL lost mappings")
	}
	// Translation traffic must have hit flash: the CMT (64 entries) is far
	// smaller than the logical space.
	mapLat := r.col.Latency(iface.SourceMap, iface.Write)
	if mapLat.Count() == 0 {
		t.Fatal("no translation writes recorded despite tiny CMT")
	}
}

func TestControllerOpenInterfaceStripsTagsWhenLocked(t *testing.T) {
	r := newRig(t, nil) // OpenInterface false
	req := &iface.Request{ID: 1, Type: iface.Write, LPN: 1, Source: iface.SourceApp,
		Tags: iface.Tags{Priority: iface.PriorityHigh, Locality: 3, Temperature: iface.TempHot}}
	r.ctl.Submit(req)
	r.run()
	if req.Tags != (iface.Tags{}) {
		t.Fatalf("block-device mode kept tags: %+v", req.Tags)
	}
}

func TestControllerBusHintsApplied(t *testing.T) {
	r := newRig(t, func(cfg *Config) { cfg.OpenInterface = true })
	r.bus.Publish(iface.PriorityHint{Thread: 4, Priority: iface.PriorityHigh})
	r.bus.Publish(iface.TemperatureHint{From: 10, To: 20, Temperature: iface.TempHot})
	r.bus.Publish(iface.LocalityHint{Group: 2, Pages: []iface.LPN{30, 31}})

	req := &iface.Request{ID: 1, Type: iface.Write, LPN: 15, Thread: 4, Source: iface.SourceApp}
	r.ctl.Submit(req)
	r.run()
	if req.Tags.Priority != iface.PriorityHigh {
		t.Error("priority hint not applied")
	}
	if req.Tags.Temperature != iface.TempHot {
		t.Error("temperature hint not applied")
	}
	req2 := &iface.Request{ID: 2, Type: iface.Write, LPN: 30, Thread: 9, Source: iface.SourceApp}
	r.ctl.Submit(req2)
	r.run()
	if req2.Tags.Locality != 2 {
		t.Error("locality hint not applied")
	}
}

func TestControllerLocalityGroupsShareBlocks(t *testing.T) {
	r := newRig(t, func(cfg *Config) { cfg.OpenInterface = true })
	// Two groups of 8 pages each, written interleaved. With locality tags
	// each group must land in its own block.
	for i := 0; i < 8; i++ {
		a := &iface.Request{ID: uint64(100 + i), Type: iface.Write, LPN: iface.LPN(i),
			Source: iface.SourceApp, Tags: iface.Tags{Locality: 1}}
		b := &iface.Request{ID: uint64(200 + i), Type: iface.Write, LPN: iface.LPN(100 + i),
			Source: iface.SourceApp, Tags: iface.Tags{Locality: 2}}
		r.ctl.Submit(a)
		r.ctl.Submit(b)
		r.run()
	}
	blocksOf := func(base iface.LPN) map[flash.BlockID]bool {
		set := map[flash.BlockID]bool{}
		for i := iface.LPN(0); i < 8; i++ {
			ppa, ok := r.ctl.Mapper().Lookup(base + i)
			if !ok {
				t.Fatalf("lpn %d unmapped", base+i)
			}
			set[ppa.BlockOf()] = true
		}
		return set
	}
	g1, g2 := blocksOf(0), blocksOf(100)
	for b := range g1 {
		if g2[b] {
			t.Fatalf("locality groups share block %v", b)
		}
	}
}

func TestControllerWriteBuffer(t *testing.T) {
	r := newRig(t, func(cfg *Config) {
		cfg.WriteBufferPages = 4
		cfg.WriteBufferLatency = 5 * sim.Microsecond
	})
	w := r.submit(iface.Write, 1)
	r.run()
	if w.Latency() != 5*sim.Microsecond {
		t.Fatalf("buffered write latency %v, want 5us RAM latency", w.Latency())
	}
	// The flash write still happened in the background.
	if r.ctl.Array().Counters().Writes != 1 {
		t.Fatalf("flash writes = %d, want 1 flush", r.ctl.Array().Counters().Writes)
	}
	if _, ok := r.ctl.Mapper().Lookup(1); !ok {
		t.Fatal("flush did not map the page")
	}
	if r.ctl.Counters().BufferedWrites != 1 {
		t.Fatalf("BufferedWrites = %d", r.ctl.Counters().BufferedWrites)
	}
}

func TestControllerWriteBufferBackpressure(t *testing.T) {
	r := newRig(t, func(cfg *Config) {
		cfg.WriteBufferPages = 2
	})
	for i := 0; i < 20; i++ {
		r.submit(iface.Write, iface.LPN(i))
	}
	r.run()
	c := r.ctl.Counters()
	if c.BufferStalls == 0 {
		t.Fatal("20 writes through a 2-page buffer never stalled")
	}
	if got := r.ctl.Array().Counters().Writes; got != 20 {
		t.Fatalf("flash flushes = %d, want 20", got)
	}
	if len(r.done) != 20 {
		t.Fatalf("completions = %d, want 20", len(r.done))
	}
}

// TestControllerWriteBufferStallQueue feeds a second wave of writes into the
// stall queue while the first wave is still draining from its front:
// stalled writes are admitted in arrival order, the quiescence check counts
// only the writes still waiting, and it passes once they drain.
func TestControllerWriteBufferStallQueue(t *testing.T) {
	r := newRig(t, func(cfg *Config) {
		cfg.WriteBufferPages = 2
	})
	for i := 0; i < 20; i++ {
		r.submit(iface.Write, iface.LPN(i))
	}
	r.eng.Run(sim.Time(sim.Millisecond))
	stalled := r.ctl.buffer.waiting.Len()
	if stalled == 0 || stalled == 18 {
		t.Fatalf("%d writes stalled after 1ms, want the queue partly drained", stalled)
	}
	if err := r.ctl.checkQuiescent(); err == nil {
		t.Fatal("quiescence check passed with writes stalled")
	}
	for i := 20; i < 40; i++ {
		r.submit(iface.Write, iface.LPN(i))
	}
	r.run()
	if len(r.done) != 40 {
		t.Fatalf("completions = %d, want 40", len(r.done))
	}
	for i, req := range r.done {
		if req.LPN != iface.LPN(i) {
			t.Fatalf("completion %d is LPN %d: stalled writes left out of arrival order", i, req.LPN)
		}
	}
	if err := r.ctl.checkQuiescent(); err != nil {
		t.Fatalf("drained controller not quiescent: %v", err)
	}
}

// TestControllerFinishReadsRequestBeforeOnComplete pins the completion
// ownership rule: once OnComplete returns, an application request belongs to
// its issuer, which may recycle it at once. Here the issuer overwrites every
// request it gets back so it looks like an internal one; the controller must
// have decided ownership before the callback, so no application request may
// land in its internal-request pool.
func TestControllerFinishReadsRequestBeforeOnComplete(t *testing.T) {
	var app []*iface.Request
	r := newRig(t, func(cfg *Config) {
		cfg.OnComplete = func(req *iface.Request) {
			app = append(app, req)
			*req = iface.Request{ID: 1 << 62, Source: iface.SourceGC}
		}
	})
	for i := 0; i < 8; i++ {
		r.submit(iface.Write, iface.LPN(i))
	}
	r.run()
	for i := 0; i < 8; i++ {
		r.submit(iface.Read, iface.LPN(i))
	}
	r.run()
	if len(app) != 16 {
		t.Fatalf("completions = %d, want 16", len(app))
	}
	for _, pooled := range r.ctl.reqPool {
		for _, a := range app {
			if pooled == a {
				t.Fatalf("application request %p was recycled into the controller's internal pool", a)
			}
		}
	}
}

func TestControllerSchedulingPolicyHonored(t *testing.T) {
	// With reads-first priority, a read submitted after a burst of writes
	// should complete before most of the writes.
	runWith := func(policy sched.Policy) (readDone sim.Time, lastWrite sim.Time) {
		r := newRig(t, func(cfg *Config) { cfg.Policy = policy })
		r.submit(iface.Write, 0)
		r.run() // map LPN 0 so the read hits flash
		var writes []*iface.Request
		for i := 1; i <= 16; i++ {
			writes = append(writes, r.submit(iface.Write, iface.LPN(i)))
		}
		rd := r.submit(iface.Read, 0)
		r.run()
		for _, w := range writes {
			if w.Completed > lastWrite {
				lastWrite = w.Completed
			}
		}
		return rd.Completed, lastWrite
	}
	fifoRead, _ := runWith(&sched.FIFO{})
	prioRead, _ := runWith(&sched.Priority{Prefer: sched.PreferReads})
	if prioRead >= fifoRead {
		t.Fatalf("reads-first read at %v, FIFO read at %v; priority had no effect", prioRead, fifoRead)
	}
}

func TestControllerMemoryAccounting(t *testing.T) {
	r := newRig(t, nil)
	if r.ctl.Memory().RAMUsed() <= 0 {
		t.Fatal("mapping RAM not accounted")
	}
	// A page map for this geometry needs ~4B x logical + 8B x physical.
	_, err := New(sim.NewEngine(), iface.NewBus(), stats.NewCollector(0, 0), Config{
		Geometry: smallGeo(), RAMBytes: 16, WL: WLOff(),
		Overprovision: 0.25, GCGreediness: 2,
	})
	if err == nil {
		t.Fatal("16-byte RAM budget accepted a full page map")
	}
}

func TestControllerConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Overprovision = 0.001 },
		func(c *Config) { c.Mapping = MapDFTL; c.ReservedTransBlocks = 1 },
		func(c *Config) { c.Mapping = MapDFTL; c.ReservedTransBlocks = 8 }, // half of 16 blocks/LUN
		func(c *Config) { c.GCCopyback = true },                            // without chip feature
	}
	for i, mut := range bad {
		cfg := Config{Geometry: smallGeo(), Overprovision: 0.25, GCGreediness: 2, WL: WLOff()}
		mut(&cfg)
		if _, err := New(sim.NewEngine(), iface.NewBus(), stats.NewCollector(0, 0), cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestControllerDeterminism(t *testing.T) {
	trace := func() []sim.Time {
		r := newRig(t, func(cfg *Config) { cfg.GCPolicy = gc.Greedy{} })
		var times []sim.Time
		n := r.ctl.LogicalPages()
		rng := sim.NewRNG(77)
		for i := 0; i < 2*n; i++ {
			req := r.submit(iface.Write, iface.LPN(rng.Intn(n)))
			if i%8 == 7 {
				r.run()
			}
			_ = req
		}
		r.run()
		for _, d := range r.done {
			times = append(times, d.Completed)
		}
		return times
	}
	a, b := trace(), trace()
	if len(a) != len(b) {
		t.Fatalf("runs completed %d vs %d requests", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("completion %d at %v vs %v: simulation not deterministic", i, a[i], b[i])
		}
	}
}
