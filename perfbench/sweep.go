package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"eagletree/internal/core"
	"eagletree/internal/experiment"
	"eagletree/internal/resultstore"
	"eagletree/internal/spec"
	"eagletree/internal/workload"
)

// decodeDoc decodes a workload's document and applies the benchmark seed,
// the way "eagletree sweep -seeds" does.
func decodeDoc(data []byte, seed uint64) (spec.Experiment, error) {
	doc, err := spec.Decode(data)
	if err != nil {
		return spec.Experiment{}, err
	}
	doc.Base.Seed = seed
	return doc, nil
}

// setupTimes breaks one set-up down by phase, in seconds.
type setupTimes struct {
	Decode   float64 `json:"decode_s"`
	FromSpec float64 `json:"from_spec_s"`
	// Threads is the time to construct the measured workloads' threads
	// once; E13's trace capture, memoised per process, happens here.
	Threads float64 `json:"threads_s"`
	// Prepare sums the Runner's prepare-miss walls: aging each distinct
	// prepared device and encoding its snapshot.
	Prepare float64 `json:"prepare_s"`
	Builds  int     `json:"builds"`
}

func (t setupTimes) Total() float64 { return t.Decode + t.FromSpec + t.Threads + t.Prepare }

// setUp does everything a sweep needs before its first measured IO: it
// decodes and compiles the document, constructs the measured workloads'
// threads once, and fills cache with every distinct prepared device by
// running the definition through the Runner with empty measured workloads.
func setUp(ctx context.Context, data []byte, seed uint64, cache *experiment.StateCache) (spec.Experiment, experiment.Definition, setupTimes, error) {
	var t setupTimes
	start := time.Now()
	doc, err := decodeDoc(data, seed)
	if err != nil {
		return doc, experiment.Definition{}, t, err
	}
	t.Decode = time.Since(start).Seconds()

	start = time.Now()
	def, err := experiment.FromSpec(doc)
	if err != nil {
		return doc, def, t, err
	}
	t.FromSpec = time.Since(start).Seconds()

	// The workload hooks build their threads when they register them; an
	// unrun stack takes the registrations and is dropped.
	scratch, err := core.New(def.Base())
	if err != nil {
		return doc, def, t, err
	}
	hooks := []func(*core.Stack, *workload.Handle){def.Workload}
	for _, v := range def.Variants {
		hooks = append(hooks, v.Workload)
	}
	for _, hook := range hooks {
		if hook != nil {
			start = time.Now()
			hook(scratch, nil)
			t.Threads += time.Since(start).Seconds()
		}
	}

	prep := def
	prep.Workload = func(*core.Stack, *workload.Handle) {}
	prep.Variants = append([]experiment.Variant(nil), def.Variants...)
	for i := range prep.Variants {
		prep.Variants[i].Workload = nil
	}
	obs := experiment.ObserverFunc(func(ev experiment.Event) {
		if ev.Kind == experiment.EventPrepareMiss {
			t.Prepare += ev.Wall.Seconds()
			t.Builds++
		}
	})
	_, err = experiment.New(experiment.Options{Workers: 1, Cache: cache, Observer: obs}).Run(ctx, prep)
	return doc, def, t, err
}

// sweepSample is the host cost of one measured sweep.
type sweepSample struct {
	Wall    float64 // s
	CPU     float64 // s, user+sys of the whole process
	AllocMB float64
	AllocsM float64
	AppIOs  float64 // simulated application IOs completed
}

// measuredSweep runs every variant once, sequentially, with prepared states
// served from cache, and appends the rows to store through a Sink, as
// "eagletree sweep -results" does.
func measuredSweep(ctx context.Context, doc spec.Experiment, def experiment.Definition, cache *experiment.StateCache, store *resultstore.Store) (experiment.Results, sweepSample, error) {
	var s sweepSample
	sink, err := resultstore.NewSink(store, doc, "perfbench")
	if err != nil {
		return experiment.Results{}, s, err
	}
	runner := experiment.New(experiment.Options{Workers: 1, Cache: cache, Observer: sink})

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	start := time.Now()
	res, err := runner.Run(ctx, def)
	if err == nil {
		err = sink.Flush()
	}
	s.Wall = time.Since(start).Seconds()
	s.CPU = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	s.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	s.AllocsM = float64(m1.Mallocs-m0.Mallocs) / 1e6
	for _, row := range res.Rows {
		s.AppIOs += float64(row.Report.ReadLatency.Count + row.Report.WriteLatency.Count)
	}
	return res, s, err
}

// sweepRun is what one measuring process returns: the cost of its sweep,
// the sweep's rendered reports in variant order, and its peak memory.
type sweepRun struct {
	Sample sweepSample
	// Lines holds one rendered report per variant, "" for a variant that
	// failed; Errors holds that variant's error, "" for one that did not.
	Lines    []string
	Errors   []string
	MaxRSSMB float64
}

// measure is one measuring process: an untimed warm set-up that fills the
// cache and captures any trace, then one measured sweep whose rows are
// appended to the store in dir.
func measure(ctx context.Context, data []byte, seed uint64, dir string) (sweepRun, error) {
	var run sweepRun
	cache := experiment.NewStateCache("")
	doc, def, _, err := setUp(ctx, data, seed, cache)
	if err != nil {
		return run, fmt.Errorf("set-up: %w", err)
	}
	store, err := resultstore.Open(dir)
	if err != nil {
		return run, err
	}
	res, s, err := measuredSweep(ctx, doc, def, cache, store)
	run.Sample = s
	run.Lines, run.Errors = sweepLines(seed, def, res, err)
	run.MaxRSSMB = maxRSSMB()
	return run, nil
}

// sweepLines renders one sweep's rows in variant order. Variants without a
// row failed: the first with err, the rest because the sweep stopped.
func sweepLines(seed uint64, def experiment.Definition, res experiment.Results, err error) (lines, errs []string) {
	lines = make([]string, len(def.Variants))
	errs = make([]string, len(def.Variants))
	for i := range def.Variants {
		switch {
		case i < len(res.Rows):
			lines[i] = reportLine(seed, def.Name, res.Rows[i].Label, res.Rows[i].Report)
		case i == len(res.Rows) && err != nil:
			errs[i] = err.Error()
		default:
			errs[i] = "no row"
		}
	}
	return lines, errs
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}
