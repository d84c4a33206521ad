package experiment

import (
	"bytes"
	"flag"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"testing"

	"eagletree/internal/core"
	"eagletree/internal/spec"
	"eagletree/specs"
)

type coreConfig = core.Config

var updateSpecs = flag.Bool("update-specs", false, "rewrite the suite documents under specs/ in canonical form (and specs/full/golden.txt)")

const specDir = "../../specs"

// TestGoldenSpecFiles checks every embedded suite document at both scales:
// it must decode, validate, and already be in canonical form — re-encoding
// the decoded document reproduces the checked-in bytes exactly, so the file
// a user edits is the document the suite runs. Rewrite the documents in
// canonical form with
//
//	go test ./internal/experiment -run TestGoldenSpecFiles -args -update-specs
func TestGoldenSpecFiles(t *testing.T) {
	for _, set := range []struct {
		name, glob string
		scale      Scale
	}{
		{"small", "e*.json", Small},
		{"full", "full/e*.json", Full},
	} {
		t.Run(set.name, func(t *testing.T) {
			names, err := fs.Glob(specs.FS, set.glob)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(SuiteSpecs(set.scale)); n != len(names) || n != 14 {
				t.Fatalf("SuiteSpecs decodes %d documents of %d embedded, want all 14 numbered e1..e14", n, len(names))
			}
			for _, name := range names {
				t.Run(path.Base(name), func(t *testing.T) {
					data, err := fs.ReadFile(specs.FS, name)
					if err != nil {
						t.Fatal(err)
					}
					doc, err := spec.Decode(data)
					if err != nil {
						t.Fatalf("does not decode: %v", err)
					}
					if err := doc.Validate(); err != nil {
						t.Fatalf("does not validate: %v", err)
					}
					want, err := spec.Encode(doc)
					if err != nil {
						t.Fatal(err)
					}
					if *updateSpecs {
						if err := os.WriteFile(filepath.Join(specDir, name), want, 0o644); err != nil {
							t.Fatal(err)
						}
						return
					}
					if !bytes.Equal(data, want) {
						t.Errorf("specs/%s is not in canonical form — rewrite with -args -update-specs", name)
					}
				})
			}
		})
	}
}

// TestSuiteScalesDifferOnlyInScale pairs each specs/eN.json with
// specs/full/eN.json: the two documents must describe the same experiment,
// differing only in the workload factor (1 vs 8), the blocks per LUN, and
// the e13replay capture device (small vs full). An edit to one document of
// a pair and not the other fails here.
func TestSuiteScalesDifferOnlyInScale(t *testing.T) {
	small, full := SuiteSpecs(Small), SuiteSpecs(Full)
	if len(small) != len(full) {
		t.Fatalf("%d small documents, %d full", len(small), len(full))
	}
	for i := range small {
		s, f := small[i], full[i]
		t.Run(s.Name, func(t *testing.T) {
			if s.Factor != 1 || f.Factor != 8 {
				t.Errorf("factor small=%d full=%d, want 1 and 8", s.Factor, f.Factor)
			}
			a, err := spec.Encode(unscaled(t, s, "small"))
			if err != nil {
				t.Fatal(err)
			}
			b, err := spec.Encode(unscaled(t, f, "full"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("small and full documents differ beyond scale:\nsmall: %s\nfull:  %s", a, b)
			}
		})
	}
}

// unscaled clears the fields a scale may set — factor, blocks per LUN and
// the e13replay "scale" parameter, which must name device — so the rest of
// the document can be compared across scales. The document's parameter maps
// are modified in place.
func unscaled(t *testing.T, e spec.Experiment, device string) spec.Experiment {
	t.Helper()
	e.Factor = 0
	e.Base.Geometry.BlocksPerLUN = 0
	threads := append([]spec.Thread(nil), e.Workload...)
	for _, v := range e.Variants {
		threads = append(threads, v.Workload...)
	}
	for _, th := range threads {
		if th.Type != "e13replay" {
			continue
		}
		if got := th.Params["scale"]; got != device {
			t.Errorf("e13replay scale %v in the %s document", got, device)
		}
		delete(th.Params, "scale")
	}
	return e
}

// TestSpecRepeatIndexDoesNotLeak: a thread's repeat expression must see a
// fresh i, not the previous thread's last replica index (regression: env.I
// leaked across thread entries, so repeat:"i+1" after a repeat:3 thread
// registered three replicas instead of one).
func TestSpecRepeatIndexDoesNotLeak(t *testing.T) {
	e := spec.Experiment{
		Name: "repeat-leak",
		Base: mustLookupSpec(t, Small, "E11").Base,
		Workload: []spec.Thread{
			{Type: "randwrite", Repeat: 3, Params: map[string]any{"from": 0, "space": "n", "count": 10, "depth": 4}},
			{Type: "randread", Repeat: "i+1", Params: map[string]any{"from": 0, "space": "n", "count": 10, "depth": 4}},
		},
	}
	cfg, err := e.Base.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := RegisterRun(e, spec.Variant{}, st); err != nil {
		t.Fatal(err)
	}
	if got := st.Runner.Active(); got != 4 {
		t.Fatalf("registered %d threads, want 4 (3 writers + 1 reader; i must reset per thread)", got)
	}
}

// TestFromSpecComposesWithBaseOverrides: wrapping a spec-compiled
// definition's Base (the golden-dump test does this to sweep seeds) must
// compose with variant overrides — the variant mutates the wrapped
// configuration instead of rebuilding the document's base.
func TestFromSpecComposesWithBaseOverrides(t *testing.T) {
	def := mustLookup(t, Small, "E3")
	base := def.Base
	def.Base = func() (cfg coreConfig) {
		cfg = base()
		cfg.Seed = 12345
		return cfg
	}
	for _, v := range def.Variants {
		cfg := def.Base()
		if v.Mutate != nil {
			v.Mutate(&cfg)
		}
		if cfg.Seed != 12345 {
			t.Fatalf("variant %q reset the seed to %d", v.Label, cfg.Seed)
		}
	}
}
