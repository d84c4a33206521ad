// The predefined experimental suite, E1–E14. Each experiment is a spec
// document embedded from specs/ (specs/eN.json at small scale,
// specs/full/eN.json at full scale): a base configuration of named
// components, a preparation declaration, a workload thread list and a
// variant grid, resolved through the component registry into a runnable
// Definition. The documents are the suite's only definition, so anything the
// suite runs a user can run (and edit) from a file.
package experiment

import (
	"errors"
	"fmt"
	"io/fs"
	"strings"

	"eagletree/internal/core"
	"eagletree/internal/spec"
	"eagletree/internal/trace"
	"eagletree/internal/workload"
	"eagletree/specs"
)

// Scale sizes the predefined experiments. Small finishes in tens of
// milliseconds per variant (benchmarks, CI); Full is the paper-credible
// size the sweep tool uses.
type Scale int

const (
	// Small is bench/CI scale.
	Small Scale = iota
	// Full is report scale.
	Full
)

// ErrUnknownScale reports a scale name other than "small" or "full".
var ErrUnknownScale = errors.New("experiment: unknown scale")

// ErrUnknownExperiment reports a selector that names no suite experiment.
var ErrUnknownExperiment = errors.New("experiment: no suite experiment matches")

// ParseScale maps a -scale flag value onto a Scale. Only the exact names
// "small" and "full" parse: a misspelling is an error, never a silent
// fallback to small scale.
func ParseScale(name string) (Scale, error) {
	switch name {
	case "small":
		return Small, nil
	case "full":
		return Full, nil
	}
	return Small, fmt.Errorf("%w %q (want small or full)", ErrUnknownScale, name)
}

// ID returns a suite experiment's short identifier: "E3" for
// "E3-gc-greediness".
func ID(name string) string {
	id, _, _ := strings.Cut(name, "-")
	return id
}

// Matches reports whether sel selects the named experiment: its short ID
// ("e3") or its full name, case-insensitively. Lookup and
// `eagletree sweep -run` both select by this rule.
func Matches(name, sel string) bool {
	return strings.EqualFold(ID(name), sel) || strings.EqualFold(name, sel)
}

// SuiteSpecs decodes the embedded suite documents at the given scale, in
// paper order (e1.json, e2.json, …). Encoding any element reproduces its
// checked-in file byte for byte.
func SuiteSpecs(s Scale) []spec.Experiment {
	dir := ""
	if s == Full {
		dir = "full/"
	}
	var docs []spec.Experiment
	for i := 1; ; i++ {
		name := fmt.Sprintf("%se%d.json", dir, i)
		data, err := fs.ReadFile(specs.FS, name)
		if errors.Is(err, fs.ErrNotExist) {
			return docs
		}
		var doc spec.Experiment
		if err == nil {
			doc, err = spec.Decode(data)
		}
		if err != nil {
			// The documents are compiled into the binary and round-trip
			// checked by the tests; a failure here is a build defect.
			panic(fmt.Sprintf("experiment: embedded suite document specs/%s: %v", name, err))
		}
		docs = append(docs, doc)
	}
}

// Suite returns every predefined experiment at the given scale, in paper
// order, resolved through the component registry.
func Suite(s Scale) []Definition {
	docs := SuiteSpecs(s)
	defs := make([]Definition, len(docs))
	for i, e := range docs {
		def, err := FromSpec(e)
		if err != nil {
			panic(fmt.Sprintf("experiment: suite spec %q: %v", e.Name, err))
		}
		defs[i] = def
	}
	return defs
}

// Lookup resolves one suite experiment at the given scale, selected by
// short ID ("E3") or full name ("E3-gc-greediness") as Matches defines. An
// unmatched selector wraps ErrUnknownExperiment.
func Lookup(s Scale, id string) (Definition, error) {
	doc, err := lookupSpec(s, id)
	if err != nil {
		return Definition{}, err
	}
	return FromSpec(doc)
}

func lookupSpec(s Scale, id string) (spec.Experiment, error) {
	for _, e := range SuiteSpecs(s) {
		if Matches(e.Name, id) {
			return e, nil
		}
	}
	return spec.Experiment{}, fmt.Errorf("%w %q (try 'eagletree list')", ErrUnknownExperiment, id)
}

// GameWeights scores the demonstration game: maximize throughput while
// balancing mean latency and latency variability between IO types (§3).
type GameWeights struct {
	// LatencyPenalty scales the mean of read and write latency (per µs).
	LatencyPenalty float64
	// BalancePenalty scales the |read - write| mean latency gap (per µs).
	BalancePenalty float64
	// VariabilityPenalty scales the summed latency std (per µs).
	VariabilityPenalty float64
}

// DefaultGameWeights returns the scoring the demo uses. Penalties are per
// millisecond of latency, gap and variability respectively.
func DefaultGameWeights() GameWeights {
	return GameWeights{LatencyPenalty: 0.1, BalancePenalty: 0.3, VariabilityPenalty: 0.1}
}

// Score computes the game's composite objective for one run: throughput
// discounted by mean latency, by the read/write latency imbalance, and by
// latency variability. Higher is better; the score stays positive, so it
// reads as "effective IOPS".
func (w GameWeights) Score(r core.Report) float64 {
	rm, wm := r.ReadLatency.Mean.Millis(), r.WriteLatency.Mean.Millis()
	gap := rm - wm
	if gap < 0 {
		gap = -gap
	}
	penalty := w.LatencyPenalty*(rm+wm) +
		w.BalancePenalty*gap +
		w.VariabilityPenalty*(r.ReadLatency.Std.Millis()+r.WriteLatency.Std.Millis())
	return r.Throughput / (1 + penalty)
}

// CaptureE13Trace records the E13 reference workload: a file-system churn on
// an aged device, captured at the OS scheduler layer after the measurement
// barrier. The capture device is the E13 document's base configuration, and
// the churn scales with its factor. The result is fully determined by the
// scale, so every caller gets the identical trace.
func CaptureE13Trace(s Scale) *trace.Trace {
	doc, err := lookupSpec(s, "E13")
	if err != nil {
		panic(fmt.Sprintf("experiment: E13 capture spec: %v", err))
	}
	cap := trace.NewCapture()
	cap.Stop() // stay silent through device preparation
	cfg, err := doc.Base.Resolve()
	if err != nil {
		panic(fmt.Sprintf("experiment: E13 capture config: %v", err))
	}
	cfg.OS.Capture = cap
	st, err := core.New(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiment: E13 capture stack: %v", err))
	}
	n := int64(st.LogicalPages())
	seq := st.Add(&workload.SequentialWriter{From: 0, Count: n, Depth: 32})
	age := st.Add(&workload.RandomWriter{From: 0, Space: n, Count: n, Depth: 32}, seq)
	barrier := st.AddBarrier(age)
	arm := st.Add(&workload.Func{F: func(ctx *workload.Ctx) { cap.Start(ctx.Now()) }}, barrier)
	ppb := cfg.Controller.Geometry.PagesPerBlock
	st.Add(&workload.FileSystem{
		From: 0, Space: n * 3 / 4, Ops: 1200 * doc.Factor, Depth: 8,
		MeanFilePages: ppb,
	}, arm)
	st.Run()
	return cap.Trace()
}
