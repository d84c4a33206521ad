package experiment

import "testing"

// End-to-end full-scale benchmarks: each iteration runs one complete
// -scale full experiment — preparation, every variant, report generation —
// with no shared prepared-state cache, so ns/op is the honest wall-clock
// cost a user pays for `eagletree sweep -run eN -scale full`. benchgate
// gates them in the CI full-scale job against BENCH_BASELINE.json budgets;
// they are the regression tripwire for the data-layer restructure (SoA
// flash columns, constant-cost victim search, classed dispatch).
//
// The three guarded experiments cover the distinct full-scale cost shapes:
// E4 is GC/wear-leveling bound (victim selection and migration dominate),
// E8 is stream/temperature bound (write-readiness classing dominates), and
// E13 replays the aged-file-system trace (mixed read path with mapping
// churn).

func benchFullExperiment(b *testing.B, id string) {
	// Decoding the suite documents to find the definition is set-up, not
	// part of the experiment a user pays for per sweep.
	def := mustLookup(b, Full, id)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunOpts(def, Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullScaleE4(b *testing.B)  { benchFullExperiment(b, "E4") }
func BenchmarkFullScaleE8(b *testing.B)  { benchFullExperiment(b, "E8") }
func BenchmarkFullScaleE13(b *testing.B) { benchFullExperiment(b, "E13") }
