package experiment

import (
	"errors"
	"testing"

	"eagletree/internal/spec"
)

// mustLookup resolves one suite experiment, failing the test on error.
func mustLookup(tb testing.TB, s Scale, id string) Definition {
	tb.Helper()
	def, err := Lookup(s, id)
	if err != nil {
		tb.Fatal(err)
	}
	return def
}

// mustLookupSpec returns one suite experiment's document, failing the test
// on error.
func mustLookupSpec(tb testing.TB, s Scale, id string) spec.Experiment {
	tb.Helper()
	doc, err := lookupSpec(s, id)
	if err != nil {
		tb.Fatal(err)
	}
	return doc
}

// TestLookup selects suite experiments by short ID or full name, in any
// case, and reports an unmatched selector with the typed error.
func TestLookup(t *testing.T) {
	for _, id := range []string{"E3", "e3", "E3-gc-greediness", "e3-GC-Greediness"} {
		if def := mustLookup(t, Small, id); def.Name != "E3-gc-greediness" {
			t.Errorf("Lookup(%q) = %s", id, def.Name)
		}
	}
	if def := mustLookup(t, Full, "e14"); def.Name != "E14-reliability" {
		t.Errorf("Lookup(Full, e14) = %s", def.Name)
	}
	for _, id := range []string{"", "E15", "E1-", "gc-greediness", "all"} {
		if _, err := Lookup(Small, id); !errors.Is(err, ErrUnknownExperiment) {
			t.Errorf("Lookup(%q) err = %v, want ErrUnknownExperiment", id, err)
		}
	}
}

// TestParseScale accepts exactly "small" and "full"; anything else is the
// typed error rather than a silent fallback to small scale.
func TestParseScale(t *testing.T) {
	for name, want := range map[string]Scale{"small": Small, "full": Full} {
		if got, err := ParseScale(name); err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v", name, got, err)
		}
	}
	for _, name := range []string{"", "Full", "fulll", "SMALL", " full"} {
		if _, err := ParseScale(name); !errors.Is(err, ErrUnknownScale) {
			t.Errorf("ParseScale(%q) err = %v, want ErrUnknownScale", name, err)
		}
	}
}

// TestSuiteDefinitionsRun executes every predefined experiment at small
// scale and sanity-checks that each produced a full row set with completed
// IO. Shape assertions (who wins) live in the root bench harness and the
// shape tests below; this test guards that the definitions stay runnable.
func TestSuiteDefinitionsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every suite definition; skipped with -short (the race CI leg)")
	}
	for _, def := range Suite(Small) {
		def := def
		t.Run(def.Name, func(t *testing.T) {
			res, err := Run(def)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != len(def.Variants) {
				t.Fatalf("%d rows for %d variants", len(res.Rows), len(def.Variants))
			}
			for _, row := range res.Rows {
				n := row.Report.ReadLatency.Count + row.Report.WriteLatency.Count
				if n == 0 {
					t.Errorf("variant %q measured zero IOs", row.Label)
				}
				if row.Report.Throughput <= 0 {
					t.Errorf("variant %q throughput %.2f", row.Label, row.Report.Throughput)
				}
			}
		})
	}
}

func TestE1ParallelismShape(t *testing.T) {
	res, err := Run(mustLookup(t, Small, "E1"))
	if err != nil {
		t.Fatal(err)
	}
	// More LUNs must help: the 16-LUN shape beats the 1-LUN shape clearly.
	first := res.Rows[0].Report.Throughput // ch=1,luns=1
	big := res.Rows[6].Report.Throughput   // ch=4,luns=4
	if big < 4*first {
		t.Fatalf("16 LUNs (%.0f IOPS) < 4x 1 LUN (%.0f IOPS): parallelism broken", big, first)
	}
}

func TestE2PolicyTradeoffShape(t *testing.T) {
	res, err := Run(mustLookup(t, Small, "E2"))
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]Row{}
	for _, r := range res.Rows {
		byLabel[r.Label] = r
	}
	fifo, rf := byLabel["fifo"], byLabel["reads-first"]
	if rf.Report.ReadLatency.Mean >= fifo.Report.ReadLatency.Mean {
		t.Fatalf("reads-first read mean %v >= fifo %v", rf.Report.ReadLatency.Mean, fifo.Report.ReadLatency.Mean)
	}
	if rf.Report.WriteLatency.Mean <= fifo.Report.WriteLatency.Mean {
		t.Fatalf("reads-first write mean %v <= fifo %v: no price paid", rf.Report.WriteLatency.Mean, fifo.Report.WriteLatency.Mean)
	}
}

func TestE9QueueDepthShape(t *testing.T) {
	res, err := Run(mustLookup(t, Small, "E9"))
	if err != nil {
		t.Fatal(err)
	}
	d1 := res.Rows[0].Report
	d64 := res.Rows[len(res.Rows)-1].Report
	if d64.Throughput <= d1.Throughput {
		t.Fatalf("depth 64 throughput %.0f <= depth 1 %.0f", d64.Throughput, d1.Throughput)
	}
	if d64.ReadLatency.Mean <= d1.ReadLatency.Mean {
		t.Fatalf("depth 64 latency %v <= depth 1 %v: queueing delay missing", d64.ReadLatency.Mean, d1.ReadLatency.Mean)
	}
}

func TestE11AgingShape(t *testing.T) {
	res, err := Run(mustLookup(t, Small, "E11"))
	if err != nil {
		t.Fatal(err)
	}
	fresh, aged := res.Rows[0].Report, res.Rows[1].Report
	if aged.Throughput >= fresh.Throughput {
		t.Fatalf("aged device (%.0f IOPS) not slower than fresh (%.0f IOPS)", aged.Throughput, fresh.Throughput)
	}
	if aged.WriteAmplification <= 1.0 {
		t.Fatalf("aged WA %.2f, want > 1", aged.WriteAmplification)
	}
}

func TestGameScoreOrdersRuns(t *testing.T) {
	res, err := Run(mustLookup(t, Small, "E12"))
	if err != nil {
		t.Fatal(err)
	}
	w := DefaultGameWeights()
	best, worst := res.Rows[0], res.Rows[0]
	for _, r := range res.Rows[1:] {
		if w.Score(r.Report) > w.Score(best.Report) {
			best = r
		}
		if w.Score(r.Report) < w.Score(worst.Report) {
			worst = r
		}
	}
	if best.Label == worst.Label {
		t.Fatal("game score cannot distinguish any scheduling combination")
	}
	if w.Score(best.Report) <= w.Score(worst.Report) {
		t.Fatal("score ordering inconsistent")
	}
}
