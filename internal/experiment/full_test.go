package experiment

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"eagletree/internal/core"
)

// Full-scale golden files live under specs/full/: the pinned -scale full
// spec documents plus the two-seed report dump the CI full-scale job diffs.
const fullSpecDir = "../../specs/full"

// fullGoldenDump renders every full-scale suite report for the two golden
// seeds in the same line format TestDumpGolden uses: one %#v per variant,
// bit-exact, so any behavioral drift — scheduling, GC, wear leveling,
// latency accounting — shows up as a text diff.
func fullGoldenDump(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, seed := range []uint64{7, 12345} {
		for _, def := range Suite(Full) {
			def := def
			base := def.Base
			def.Base = func() core.Config {
				cfg := base()
				cfg.Seed = seed
				return cfg
			}
			res, err := Run(def)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range res.Rows {
				fmt.Fprintf(&buf, "seed=%d %s %s %#v\n", seed, res.Name, row.Label, row.Report)
			}
		}
	}
	return buf.Bytes()
}

// TestFullScaleGolden is the full-scale bit-identity gate: the complete
// E1–E14 suite at -scale full, seeds 7 and 12345, must reproduce the
// committed specs/full/golden.txt byte for byte. The CI full-scale job runs
// it on every change; data-layer rework that alters any simulated outcome
// fails here before a human ever reads a chart. Regenerate with
//
//	go test ./internal/experiment -run TestFullScaleGolden -args -update-specs
func TestFullScaleGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole suite at full scale twice; skipped with -short")
	}
	path := filepath.Join(fullSpecDir, "golden.txt")
	got := fullGoldenDump(t)
	if *updateSpecs {
		if err := os.MkdirAll(fullSpecDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v — regenerate with -args -update-specs", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("full-scale suite reports drifted from %s — if the change is intended, regenerate with -args -update-specs and explain the drift in the PR", path)
	}
}

// TestFullScaleSnapshotRestoreDeterministic extends the small-scale
// snapshot acceptance gate to -scale full: a device restored from a saved
// snapshot must behave bit-identically to a freshly prepared one at the
// sizes the paper's experiments actually use — on the sequential runner and
// the parallel one alike. Full-scale states exercise the large-array
// save/restore paths (SoA column encode/decode, free-pool reconstruction)
// that small-scale tests cannot reach.
func TestFullScaleSnapshotRestoreDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("prepares a full-scale device three times; skipped with -short")
	}
	def := mustLookup(t, Full, "E11") // fresh-vs-aged preparation: the snapshot-heaviest definition
	fresh, err := RunOpts(def, Options{Workers: 1, NoPrepareCache: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		cached, err := RunOpts(def, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh, cached) {
			t.Fatalf("%d-worker snapshot-restored results differ from fresh preparation at full scale:\nfresh:  %+v\ncached: %+v",
				workers, fresh, cached)
		}
	}
}
