package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinySpec is a deliberately small two-variant grid: enough structure to
// exercise the result pipeline (variants, seeds, provenance) while running in
// well under a second.
const tinySpec = `{
  "version": 1,
  "name": "T1-tiny",
  "base": {
    "geometry": {"channels": 1, "luns_per_channel": 1, "blocks_per_lun": 24, "pages_per_block": 16, "page_size": 4096},
    "timing": "slc",
    "mapping": "pagemap",
    "overprovision": 0.15,
    "gc": {"policy": "greedy", "greediness": 2},
    "wl": "off",
    "policy": "fifo",
    "alloc": "leastloaded",
    "os": {"policy": "fifo", "queue_depth": 8},
    "seed": 7
  },
  "workload": [
    {"type": "randwrite", "params": {"count": "600", "depth": 8, "from": 0, "space": "n"}}
  ],
  "variants": [
    {"label": "qd=8", "x": 8},
    {"label": "qd=2", "x": 2, "set": {"os.queue_depth": 2}}
  ]
}`

func writeTinySpec(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tiny.json")
	if err := os.WriteFile(path, []byte(tinySpec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runCLI drives Main and fails the test on an unexpected exit code.
func runCLI(t *testing.T, wantCode int, args ...string) (string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := Main(args, &stdout, &stderr); code != wantCode {
		t.Fatalf("eagletree %s exited %d, want %d\nstderr:\n%s", strings.Join(args, " "), code, wantCode, stderr.String())
	}
	return stdout.String(), stderr.String()
}

// TestSweepResultsStoreAndQuery is the end-to-end pass over the new result
// pipeline: sweep two seeds into a store under two labels, then drive every
// results subcommand against it.
func TestSweepResultsStoreAndQuery(t *testing.T) {
	spec := writeTinySpec(t)
	store := filepath.Join(t.TempDir(), "results")

	sweep := func(label string) {
		runCLI(t, 0, "sweep", "-spec", spec, "-seeds", "7,12345", "-results", store,
			"-label", label, "-progress=false", "-chart=false")
	}
	sweep("main")
	sweep("candidate")

	// ls: one line per (experiment, label) side, 4 rows each (2 seeds × 2
	// variants), seed range visible.
	ls, _ := runCLI(t, 0, "results", "ls", "-store", store, "-csv")
	for _, want := range []string{
		"experiment,commit,count,min(seed),max(seed)",
		"T1-tiny,main,4,7,12345",
		"T1-tiny,candidate,4,7,12345",
	} {
		if !strings.Contains(ls, want) {
			t.Fatalf("results ls missing %q:\n%s", want, ls)
		}
	}

	// query: filter + project + deterministic bytes across invocations.
	q1, _ := runCLI(t, 0, "results", "query", "-store", store,
		"-where", "commit = main", "-where", "seed = 7",
		"-select", "experiment,label,seed,throughput_iops", "-csv")
	q2, _ := runCLI(t, 0, "results", "query", "-store", store,
		"-where", "commit = main", "-where", "seed = 7",
		"-select", "experiment,label,seed,throughput_iops", "-csv")
	if q1 != q2 {
		t.Fatal("results query is not byte-stable across invocations")
	}
	if lines := strings.Split(strings.TrimRight(q1, "\n"), "\n"); len(lines) != 3 {
		t.Fatalf("query returned %d lines, want header + 2 variants:\n%s", len(lines), q1)
	}

	// group/aggregate: replicate count per variant.
	g, _ := runCLI(t, 0, "results", "query", "-store", store,
		"-where", "commit = main", "-by", "label", "-agg", "count,mean(throughput_iops),ci95(throughput_iops)", "-csv")
	if !strings.Contains(g, "label,count,mean(throughput_iops),ci95(throughput_iops)") {
		t.Fatalf("aggregate header missing:\n%s", g)
	}
	for _, line := range strings.Split(strings.TrimRight(g, "\n"), "\n")[1:] {
		if !strings.Contains(line, ",2,") {
			t.Fatalf("each variant should have 2 replicates: %q", line)
		}
	}

	// diff: the same binary produced both sides, so the simulator's
	// determinism must show up as zero regressions — and -fail-on-regress
	// must exit 0.
	d, _ := runCLI(t, 0, "results", "diff", "-store", store, "-a", "main", "-b", "candidate", "-fail-on-regress")
	if !strings.Contains(d, "0 regressions") {
		t.Fatalf("identical sweeps must diff clean:\n%s", d)
	}
	if !strings.Contains(d, "=") {
		t.Fatalf("diff verdicts missing:\n%s", d)
	}
}

// TestSweepResultsDoesNotChangeStdout pins the satellite guarantee: adding
// -results (single seed) leaves the sweep's stdout byte-identical.
func TestSweepResultsDoesNotChangeStdout(t *testing.T) {
	spec := writeTinySpec(t)
	plain, _ := runCLI(t, 0, "sweep", "-spec", spec, "-progress=false")
	stored, _ := runCLI(t, 0, "sweep", "-spec", spec, "-progress=false",
		"-results", filepath.Join(t.TempDir(), "results"))
	if plain != stored {
		t.Fatalf("-results changed sweep stdout:\n--- plain ---\n%s\n--- stored ---\n%s", plain, stored)
	}
	// A single explicit seed equal to the document's seed is also identical:
	// no replication summary, same rendering.
	seeded, _ := runCLI(t, 0, "sweep", "-spec", spec, "-progress=false", "-seeds", "7")
	if plain != seeded {
		t.Fatalf("-seeds 7 (the document seed) changed sweep stdout:\n%s", seeded)
	}
}

// TestSweepMultiSeedPrintsReplicationSummary: more than one seed appends the
// CI table after the per-seed results.
func TestSweepMultiSeedPrintsReplicationSummary(t *testing.T) {
	spec := writeTinySpec(t)
	out, _ := runCLI(t, 0, "sweep", "-spec", spec, "-progress=false", "-chart=false", "-seeds", "7,12345")
	if !strings.Contains(out, "replication summary (mean and 95% CI half-width across seeds):") {
		t.Fatalf("missing replication summary:\n%s", out)
	}
	if !strings.Contains(out, "ci95(throughput_iops)") {
		t.Fatalf("missing CI column:\n%s", out)
	}
}

func TestSweepSeedsFlagErrors(t *testing.T) {
	spec := writeTinySpec(t)
	for _, seeds := range []string{"x", "0", "7,7"} {
		var stdout, stderr bytes.Buffer
		if code := Main([]string{"sweep", "-spec", spec, "-seeds", seeds}, &stdout, &stderr); code == 0 {
			t.Fatalf("-seeds %s should fail", seeds)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := Main([]string{"sweep", "-spec", spec, "-label", "x"}, &stdout, &stderr); code == 0 {
		t.Fatal("-label without -results should fail")
	}
}

// TestScaleFlagErrors: a misspelled -scale is a usage error naming the bad
// value, for sweep and list alike — never a silent small-scale run.
func TestScaleFlagErrors(t *testing.T) {
	for _, cmd := range []string{"sweep", "list"} {
		for _, scale := range []string{"Full", "fulll", ""} {
			args := []string{cmd, "-scale", scale}
			if cmd == "sweep" {
				args = append(args, "-run", "e1", "-chart=false", "-progress=false")
			}
			var stdout, stderr bytes.Buffer
			if code := Main(args, &stdout, &stderr); code != 2 {
				t.Fatalf("%s -scale %q exited %d, want 2", cmd, scale, code)
			}
			if want := "unknown scale"; !strings.Contains(stderr.String(), want) {
				t.Fatalf("%s -scale %q stderr %q lacks %q", cmd, scale, stderr.String(), want)
			}
			if stdout.Len() != 0 {
				t.Fatalf("%s -scale %q printed output:\n%s", cmd, scale, stdout.String())
			}
		}
	}
}

func TestResultsBadArgs(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := Main([]string{"results"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bare results exited %d, want 2", code)
	}
	stderr.Reset()
	if code := Main([]string{"results", "nope"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown subcommand exited %d, want 2", code)
	}
	stderr.Reset()
	if code := Main([]string{"results", "query"}, &stdout, &stderr); code == 0 {
		t.Fatal("query without -store should fail")
	}
	stderr.Reset()
	if code := Main([]string{"results", "diff", "-store", "x"}, &stdout, &stderr); code == 0 {
		t.Fatal("diff without sides should fail")
	}
}
