package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"

	"eagletree/internal/experiment"
	"eagletree/internal/spec"
)

// TestMain lets the benchmark's child processes run from the test binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// small is a small-scale document that runs in well under a second.
var small = workloadDef{Name: "small-e2", Spec: "specs/e2.json"}

func smallConfig(t *testing.T, seed uint64, golden string) config {
	t.Helper()
	if golden == "" {
		golden = filepath.Join("..", "specs", "full", "golden.txt")
	}
	return config{root: "..", golden: golden, outDir: t.TempDir(), w: small, seed: seed,
		seconds: 0.01, trace: true, exe: os.Args[0]}
}

// smallLines renders the small document's reports for seed, as the golden
// file would hold them.
func smallLines(t *testing.T, seed uint64) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", small.Spec))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := decodeDoc(data, seed)
	if err != nil {
		t.Fatal(err)
	}
	def, err := experiment.FromSpec(doc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiment.New(experiment.Options{Workers: 1}).Run(context.Background(), def)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, row := range res.Rows {
		lines = append(lines, reportLine(seed, res.Name, row.Label, row.Report))
	}
	return lines
}

func writeGolden(t *testing.T, lines []string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "golden.txt")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runSmall(t *testing.T, cfg config) (result, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := bench(context.Background(), cfg, &out)
	if err != nil {
		t.Fatalf("bench: %v\n%s", err, out.String())
	}
	return res, out.String()
}

// TestBenchSmallUnpinnedSeed runs the whole harness, traced run included,
// on a seed the golden file does not pin: every repeat and the traced run
// must reproduce the first run, and every metric is reported with its unit.
func TestBenchSmallUnpinnedSeed(t *testing.T) {
	res, out := runSmall(t, smallConfig(t, 99, ""))
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d\n%s", res.Correct, res.Failed, out)
	}
	variants := len(smallLines(t, 99))
	// At least minSweeps measured sweeps, plus the traced run's Runner sweep
	// and re-drive.
	if min := (minSweeps + 2) * variants; res.Attempted < min || res.Attempted%variants != 0 {
		t.Fatalf("attempted %d, want a multiple of %d and at least %d", res.Attempted, variants, min)
	}
	if !strings.Contains(out, "reference=first-run") {
		t.Errorf("seed 99 should be checked against the first run:\n%s", out)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("traced run reports %d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	var shares float64
	for _, md := range perLayer {
		m, ok := res.Metrics[md.Name]
		if !ok || m.Unit != md.Unit {
			t.Errorf("per-layer metric %s: got %+v, want unit %s", md.Name, m, md.Unit)
		}
		if strings.HasSuffix(md.Name, ".cpu_share") {
			shares += m.Value
		}
	}
	if shares > 1 || shares <= 0 {
		t.Errorf("cpu shares sum to %v, want (0, 1]", shares)
	}
	for _, key := range []string{"sim.events", "controller.app_ios", "core.run_ms", "experiment.prep_builds"} {
		if res.Metrics[key].Value <= 0 {
			t.Errorf("%s = %v, want > 0", key, res.Metrics[key].Value)
		}
	}
	for _, md := range endToEnd {
		re := regexp.MustCompile(fmt.Sprintf(`(?m)^metric small-e2 %s (\S+) %s$`, regexp.QuoteMeta(md.Name), regexp.QuoteMeta(md.Unit)))
		mm := re.FindStringSubmatch(out)
		if mm == nil || mm[1] == "0" {
			t.Errorf("end-to-end metric %s missing or zero in the output", md.Name)
		}
	}
	for _, want := range []string{"metric small-e2 fail_ratio 0 ratio", "digest small-e2 ", "overhead_s=", `"spec_sha256":"`} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestBenchGoldenReference checks a pinned seed against a reference file:
// the right lines pass, and a deliberately wrong reference fails every
// variant of every run, which fail_ratio and the exit status report.
func TestBenchGoldenReference(t *testing.T) {
	lines := smallLines(t, 7)
	cfg := smallConfig(t, 7, writeGolden(t, lines))
	cfg.trace = false
	res, out := runSmall(t, cfg)
	if !res.Correct || res.Failed != 0 || !strings.Contains(out, "reference=golden") {
		t.Fatalf("right reference: correct=%v failed=%d\n%s", res.Correct, res.Failed, out)
	}
	for k := range res.Metrics {
		if _, ok := find(endToEnd, k); !ok {
			t.Errorf("untraced run reports %s, not an end-to-end metric", k)
		}
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("untraced run reports %d metrics, want %d", len(res.Metrics), len(endToEnd))
	}

	wrong := make([]string, len(lines))
	for i, l := range lines {
		head, _, _ := strings.Cut(l, " core.Report{")
		wrong[i] = head + " core.Report{Duration:1}"
	}
	cfg = smallConfig(t, 7, writeGolden(t, wrong))
	res, out = runSmall(t, cfg)
	if res.Correct || res.Failed != res.Attempted || res.Attempted == 0 {
		t.Fatalf("wrong reference: correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out)
	}
	if got := res.Metrics["fail_ratio"].Value; got != 1 {
		t.Errorf("fail_ratio = %v, want 1", got)
	}

	// A pinned seed whose reference lacks a variant fails that variant only.
	cfg = smallConfig(t, 7, writeGolden(t, lines[1:]))
	cfg.trace = false
	res, out = runSmall(t, cfg)
	if res.Correct || res.Failed == 0 || res.Failed != res.Attempted/len(lines) {
		t.Fatalf("missing line: attempted=%d failed=%d\n%s", res.Attempted, res.Failed, out)
	}
}

func find(ms []metricDef, name string) (metricDef, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

func TestParseGolden(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "specs", "full", "golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := parseGolden(f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.seeds, map[uint64]bool{7: true, 12345: true}) {
		t.Errorf("pinned seeds %v, want 7 and 12345", g.seeds)
	}
	for _, w := range workloads {
		doc, err := spec.ReadFile(filepath.Join("..", w.Spec))
		if err != nil {
			t.Fatal(err)
		}
		variants, err := doc.ExpandVariants()
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []uint64{7, 12345} {
			for _, v := range variants {
				if _, ok := g.lines[goldenKey{seed, doc.Name, v.Label}]; !ok {
					t.Errorf("%s: no golden line for seed %d %s %s", w.Name, seed, doc.Name, v.Label)
				}
			}
		}
	}

	good := "seed=3 E2-x fifo core.Report{Duration:1}\n\nseed=3 E2-x reads-first core.Report{Duration:2}\n"
	g, err = parseGolden(strings.NewReader(good))
	if err != nil || len(g.lines) != 2 || g.lines[goldenKey{3, "E2-x", "fifo"}] != "seed=3 E2-x fifo core.Report{Duration:1}" {
		t.Errorf("parse %q: %v %v", good, g, err)
	}
	for _, bad := range []string{
		"seed=3 E2-x fifo\n",
		"seed=x E2-x fifo core.Report{}\n",
		"E2-x fifo core.Report{}\n",
		"seed=3 E2-x a b core.Report{}\n",
		"seed=3 E2-x fifo core.Report{}\nseed=3 E2-x fifo core.Report{}\n",
	} {
		if _, err := parseGolden(strings.NewReader(bad)); err == nil {
			t.Errorf("parse %q: want an error", bad)
		}
	}
}

// TestManifest checks that BENCHMARK.json declares exactly the workloads
// and metrics this program reports, and that those are the benchmark's
// defined names.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", keys, want)
	}
	var m struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %+v", i, m.Workloads[i], w)
		}
	}
	var got []metricDef
	for _, e := range m.EndToEnd {
		got = append(got, metricDef{e.Name, e.Unit, e.Better, e.Bound})
	}
	if !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end:\n BENCHMARK.json %v\n program        %v", got, endToEnd)
	}
	got = nil
	for _, e := range m.PerLayer {
		got = append(got, metricDef{Name: e.Name, Unit: e.Unit, Better: e.Better})
	}
	if !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer:\n BENCHMARK.json %v\n program        %v", got, perLayer)
	}

	// The defined names: eight end-to-end metrics, of which fail_ratio is
	// declared with the per-layer ones because it is zero on a correct run,
	// and the per-layer table.
	defined := strings.Fields(`sweep_s setup_s cpu_s alloc_mb allocs_m max_rss_mb sim_ios_per_s fail_ratio
		wl.alloc_mb wl.cpu_share wl.scans wl.migrated_pages workload.alloc_mb workload.cpu_share
		sched.cpu_share sched.alloc_mb controller.cpu_share controller.alloc_mb osched.cpu_share osched.alloc_mb
		sim.events sim.ns_per_event sim.cpu_share hotcold.cpu_share
		gc.migrated_pages gc.erases gc.cpu_share flash.ops flash.cpu_share ftl.cpu_share ftl.alloc_mb
		experiment.prep_builds experiment.prep_hits experiment.prep_hit_ratio experiment.prepare_ms
		snapshot.encode_ms snapshot.state_mb spec.decode_ms trace.cpu_share trace.alloc_mb
		snapshot.decode_ms core.restore_ms core.run_ms core.report_ms core.sim_s controller.app_ios
		experiment.variant_ms_p50 experiment.variant_ms_max runtime.cpu_share resultstore.append_ms`)
	var declared []string
	for _, md := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		declared = append(declared, md.Name)
	}
	sort.Strings(defined)
	sort.Strings(declared)
	if !reflect.DeepEqual(declared, defined) {
		t.Errorf("declared metrics %v\nwant %v", declared, defined)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, md := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(md.Name) || !unit.MatchString(md.Unit) || (md.Better != "lower" && md.Better != "higher") {
			t.Errorf("metric %+v: bad name, unit or direction", md)
		}
	}
	largest := 0.0
	for _, md := range endToEnd {
		if md.Bound <= 0 || md.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", md.Name, md.Bound)
		}
		largest = max(largest, md.Bound)
	}
	if setup, _ := find(endToEnd, "setup_s"); setup.Bound != largest {
		t.Errorf("setup_s bound %v, want the largest, %v", setup.Bound, largest)
	}
}

func TestModuleTotals(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	totals, sum, err := moduleTotals(buf.Bytes(), "alloc_space")
	if err != nil {
		t.Fatal(err)
	}
	var parts float64
	for _, v := range totals {
		parts += v
	}
	if sum <= 0 || parts > sum {
		t.Errorf("totals %v sum %v", totals, sum)
	}
	if _, _, err := moduleTotals(buf.Bytes(), "no-such-type"); err == nil {
		t.Error("unknown sample type: want an error")
	}
	if _, _, err := moduleTotals(buf.Bytes()[:buf.Len()/2], "alloc_space"); err == nil {
		t.Error("truncated profile: want an error")
	}
	for fn, want := range map[string]string{
		"eagletree/internal/wl.(*Leveler).Victims": "wl",
		"eagletree/internal/sim.(*Engine).Run":     "sim",
		"runtime.mallocgc":                         "runtime",
		"internal/runtime/maps.(*Map).Get":         "runtime",
		"sort.Float64s":                            "",
		"main.main":                                "",
	} {
		if got := moduleOf(packageOf(fn)); got != want {
			t.Errorf("moduleOf(packageOf(%q)) = %q, want %q", fn, got, want)
		}
	}
}
