package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"eagletree/internal/core"
	"eagletree/internal/experiment"
	"eagletree/internal/resultstore"
	"eagletree/internal/snapshot"
)

// span is one timed call into a layer. Spans of one variant share its
// label; Parent is the enclosing span's ID (0 for the root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Variant string `json:"variant,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory, relative to its origin.
type tracer struct {
	origin time.Time
	spans  []span
}

func (t *tracer) begin(name, variant string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Variant: variant,
		StartNS: time.Since(t.origin).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	t.spans[id-1].EndNS = time.Since(t.origin).Nanoseconds()
}

// add records a span that already happened and lasted d, ending now.
func (t *tracer) add(name, variant string, parent int, d time.Duration) {
	now := time.Since(t.origin)
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Variant: variant,
		StartNS: (now - d).Nanoseconds(), EndNS: now.Nanoseconds()})
}

// ms sums the durations of every span with the given name.
func (t *tracer) ms(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.EndNS - s.StartNS
		}
	}
	return float64(ns) / 1e6
}

// tracedResult is what the traced run hands back to the benchmark.
type tracedResult struct {
	// RunnerLines are the Runner's reports, RedriveLines the phase-by-phase
	// re-drive's, both in variant order ("" where a variant failed).
	RunnerLines  []string `json:"runner_lines"`
	RedriveLines []string `json:"redrive_lines"`
	// Errors holds each variant's failure, "" when it passed; a re-drive
	// report that differs from the Runner's row is a failure.
	Errors []string `json:"errors"`
	// SweepS is the wall time of the traced re-drive of all variants.
	SweepS  float64            `json:"sweep_s"`
	Metrics map[string]float64 `json:"metrics"`
}

// tracedRun is the per-layer run, made in a fresh process so that E13's
// trace capture and every preparation are cold. It sweeps the workload once
// through the Runner with a fresh cache, then re-drives each variant phase by
// phase through the layers' exported calls, recording a span around each
// call, and profiles CPU and allocations over the whole run.
func tracedRun(ctx context.Context, data []byte, seed uint64, storeDir, spansPath string, prov provenance) (tracedResult, error) {
	var res tracedResult
	var cpuProf bytes.Buffer
	if err := pprof.StartCPUProfile(&cpuProf); err != nil {
		return res, err
	}
	defer pprof.StopCPUProfile() // a no-op once stopped below
	tr := &tracer{origin: time.Now()}
	root := tr.begin("traced-run", "", 0)

	id := tr.begin("spec.decode", "", root)
	doc, err := decodeDoc(data, seed)
	tr.end(id)
	if err != nil {
		return res, err
	}
	id = tr.begin("experiment.from_spec", "", root)
	def, err := experiment.FromSpec(doc)
	tr.end(id)
	if err != nil {
		return res, err
	}

	store, err := resultstore.Open(storeDir)
	if err != nil {
		return res, err
	}
	sink, err := resultstore.NewSink(store, doc, "perfbench")
	if err != nil {
		return res, err
	}
	cache := experiment.NewStateCache("")
	n := len(def.Variants)
	keys := make([]string, n)
	var builds, hits int
	var variantMS []float64
	sweepID := tr.begin("experiment.runner-sweep", "", root)
	obs := experiment.ObserverFunc(func(ev experiment.Event) {
		switch ev.Kind {
		case experiment.EventPrepareMiss, experiment.EventPrepareHit:
			keys[ev.Index] = ev.CacheKey
			if ev.Kind == experiment.EventPrepareMiss {
				builds++
				tr.add("experiment.prepare", ev.Variant, sweepID, ev.Wall)
			} else {
				hits++
				tr.add("experiment.prepare-hit", ev.Variant, sweepID, ev.Wall)
			}
		case experiment.EventVariantDone:
			tr.add("experiment.variant", ev.Variant, sweepID, ev.Wall)
			variantMS = append(variantMS, float64(ev.Wall)/1e6)
		}
	})
	runner := experiment.New(experiment.Options{Workers: 1, Cache: cache,
		Observer: experiment.MultiObserver(sink, obs)})
	results, runErr := runner.Run(ctx, def)
	tr.end(sweepID)
	id = tr.begin("resultstore.append", "", root)
	if err := sink.Flush(); err != nil {
		return res, err
	}
	tr.end(id)

	res.RunnerLines = make([]string, n)
	res.RedriveLines = make([]string, n)
	res.Errors = make([]string, n)
	for i, row := range results.Rows {
		res.RunnerLines[i] = reportLine(seed, def.Name, row.Label, row.Report)
	}
	if runErr != nil && len(results.Rows) < n {
		res.Errors[len(results.Rows)] = runErr.Error()
	}

	// Snapshot encode cost and size, once per distinct prepared device.
	var stateBytes int
	seen := map[string]bool{}
	for _, key := range keys {
		if key == "" || seen[key] {
			continue
		}
		seen[key] = true
		enc, ok := cache.Peek(key)
		if !ok {
			return res, fmt.Errorf("prepared state %q missing from the cache", key)
		}
		stateBytes += len(enc)
		ds, err := snapshot.Decode(enc)
		if err != nil {
			return res, err
		}
		id := tr.begin("snapshot.encode", "", root)
		snapshot.Encode(ds)
		tr.end(id)
	}

	var c counts
	redrive := tr.begin("redrive", "", root)
	decoded := map[string]*snapshot.DeviceState{}
	for i, v := range def.Variants {
		vid := tr.begin("variant", v.Label, redrive)
		rep, err := redriveVariant(ctx, tr, vid, def, v, keys[i], cache, decoded, &c)
		tr.end(vid)
		if err != nil {
			res.Errors[i] = err.Error()
			continue
		}
		res.RedriveLines[i] = reportLine(seed, def.Name, v.Label, rep)
		if res.Errors[i] == "" && res.RedriveLines[i] != res.RunnerLines[i] {
			res.Errors[i] = "re-driven report differs from the Runner's row"
		}
	}
	tr.end(redrive)
	res.SweepS = float64(tr.spans[redrive-1].EndNS-tr.spans[redrive-1].StartNS) / 1e9
	tr.end(root)

	pprof.StopCPUProfile()
	runtime.GC() // the allocation profile is as of the last collection
	var allocProf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&allocProf, 0); err != nil {
		return res, err
	}

	m := map[string]float64{
		"experiment.prep_builds":    float64(builds),
		"experiment.prep_hits":      float64(hits),
		"experiment.prep_hit_ratio": ratio(float64(hits), float64(builds+hits)),
		"experiment.prepare_ms":     tr.ms("experiment.prepare"),
		"snapshot.encode_ms":        tr.ms("snapshot.encode"),
		"snapshot.state_mb":         float64(stateBytes) / 1e6,
		"spec.decode_ms":            tr.ms("spec.decode"),
		"snapshot.decode_ms":        tr.ms("snapshot.decode"),
		"core.restore_ms":           tr.ms("core.restore"),
		"core.run_ms":               tr.ms("core.run"),
		"core.report_ms":            tr.ms("core.report"),
		"resultstore.append_ms":     tr.ms("resultstore.append"),
		"experiment.variant_ms_p50": median(variantMS),
		"experiment.variant_ms_max": maxOf(variantMS),
		"sim.events":                float64(c.events),
		"sim.ns_per_event":          ratio(tr.ms("core.run")*1e6, float64(c.events)),
		"wl.scans":                  float64(c.wlScans),
		"wl.migrated_pages":         float64(c.wlMigrated),
		"gc.migrated_pages":         float64(c.gcMigrated),
		"gc.erases":                 float64(c.gcErases),
		"flash.ops":                 float64(c.flashOps),
		"controller.app_ios":        float64(c.appIOs),
		"core.sim_s":                c.simS,
	}
	cpu, cpuSum, err := moduleTotals(cpuProf.Bytes(), "cpu")
	if err != nil {
		return res, err
	}
	alloc, _, err := moduleTotals(allocProf.Bytes(), "alloc_space")
	if err != nil {
		return res, err
	}
	for _, md := range perLayer {
		mod, kind, _ := strings.Cut(md.Name, ".")
		switch kind {
		case "cpu_share":
			m[md.Name] = ratio(cpu[mod], cpuSum)
		case "alloc_mb":
			m[md.Name] = alloc[mod] / 1e6
		}
	}
	res.Metrics = m

	out, err := json.MarshalIndent(struct {
		Provenance provenance `json:"provenance"`
		Spans      []span     `json:"spans"`
	}{prov, tr.spans}, "", " ")
	if err != nil {
		return res, err
	}
	if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
		return res, err
	}
	return res, os.WriteFile(spansPath, out, 0o644)
}

// counts are the per-layer work counters of the re-driven variants, summed
// over their measurement windows.
type counts struct {
	events, flashOps, wlScans, appIOs uint64
	wlMigrated, gcMigrated, gcErases  uint64
	simS                              float64
}

// redriveVariant runs one variant the way the Runner does, one exported
// call at a time: configuration, prepared state (StateCache.Peek, then
// snapshot.Decode once per key), core.Restore, MarkMeasurement, the
// measured workload, Stack.RunCtx and Stack.Report.
func redriveVariant(ctx context.Context, tr *tracer, vid int, def experiment.Definition, v experiment.Variant,
	key string, cache *experiment.StateCache, decoded map[string]*snapshot.DeviceState, c *counts) (core.Report, error) {
	cfg := def.Base()
	if def.SeriesBucket > 0 {
		cfg.SeriesBucket = def.SeriesBucket
	}
	if v.Mutate != nil {
		v.Mutate(&cfg)
	}
	prep := def.Prep
	if v.Prep != nil {
		prep = *v.Prep
	}
	var st *core.Stack
	if prep.None() {
		id := tr.begin("core.new", v.Label, vid)
		s, err := core.New(cfg)
		tr.end(id)
		if err != nil {
			return core.Report{}, err
		}
		st = s
	} else {
		if key == "" {
			return core.Report{}, fmt.Errorf("the Runner reported no prepared state for %q", v.Label)
		}
		id := tr.begin("experiment.cache-peek", v.Label, vid)
		enc, ok := cache.Peek(key)
		tr.end(id)
		if !ok {
			return core.Report{}, fmt.Errorf("prepared state for %q missing from the cache", v.Label)
		}
		ds := decoded[key]
		if ds == nil {
			id = tr.begin("snapshot.decode", v.Label, vid)
			d, err := snapshot.Decode(enc)
			tr.end(id)
			if err != nil {
				return core.Report{}, err
			}
			ds, decoded[key] = d, d
		}
		id = tr.begin("core.restore", v.Label, vid)
		s, err := core.Restore(cfg, ds)
		tr.end(id)
		if err != nil {
			return core.Report{}, err
		}
		id = tr.begin("core.mark-measurement", v.Label, vid)
		s.MarkMeasurement()
		tr.end(id)
		st = s
	}
	wload := def.Workload
	if v.Workload != nil {
		wload = v.Workload
	}
	id := tr.begin("workload.register", v.Label, vid)
	wload(st, nil)
	tr.end(id)

	ctl := st.Controller
	fired, scans, fc, cc := st.Engine.Fired(), ctl.Leveler().Scans(), ctl.Array().Counters(), ctl.Counters()
	id = tr.begin("core.run", v.Label, vid)
	_, err := st.RunCtx(ctx)
	tr.end(id)
	if err != nil {
		return core.Report{}, err
	}
	if !st.Runner.Done() {
		return core.Report{}, fmt.Errorf("%d threads never finished", st.Runner.Active())
	}
	id = tr.begin("core.report", v.Label, vid)
	rep := st.Report()
	tr.end(id)

	fc2, cc2 := ctl.Array().Counters(), ctl.Counters()
	c.events += st.Engine.Fired() - fired
	c.wlScans += ctl.Leveler().Scans() - scans
	c.flashOps += (fc2.Reads + fc2.Writes + fc2.Erases + fc2.Copybacks) - (fc.Reads + fc.Writes + fc.Erases + fc.Copybacks)
	c.appIOs += (cc2.AppReads + cc2.AppWrites + cc2.AppTrims) - (cc.AppReads + cc.AppWrites + cc.AppTrims)
	c.wlMigrated += rep.WLMigratedPages
	c.gcMigrated += rep.GCMigratedPages
	c.gcErases += rep.GCErases
	c.simS += rep.Duration.Seconds()
	return rep, nil
}
