// Command perfbench is EagleTree's end-to-end benchmark. It runs one pinned
// full-scale experiment document (a workload) the way a researcher runs
// "eagletree sweep -scale full -workers 1": variants one after another,
// prepared devices served from an in-memory StateCache that set-up fills,
// rows appended to a fresh result store. Each measured sweep runs in a
// fresh process. It reports host-side
// cost — sweep and set-up time, CPU, allocation, memory, simulator
// throughput — and checks every simulated report against
// specs/full/golden.txt. With -trace 1 a separate traced run in a fresh
// process adds per-layer counts, spans and profile shares.
//
// Run it from the repository root through its launcher, which builds it:
//
//	bash perfbench/run.sh --workload wear-zipf --seed 7 --seconds 55 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when any
// report differs from its reference or the benchmark cannot run.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"eagletree/internal/experiment"
)

func main() {
	// One P for the benchmark and each of its child processes. The
	// simulator is single-threaded, so a second P only runs the collector
	// beside it. On a shared 2-vCPU virtual machine that made sweep wall
	// time run up to 50% over CPU time whenever the hypervisor descheduled
	// a vCPU; with one P wall time tracks CPU time, and the collector's
	// cost shows in sweep_s.
	runtime.GOMAXPROCS(procs)
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// Set-up is sampled in fresh processes, at least minSetups times and until
// setupBudget has passed, at most maxSetups times; the median is reported.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = 2 * time.Second
	// minSweeps measured sweeps run even when they overrun --seconds.
	minSweeps = 3
	// procs is the GOMAXPROCS the benchmark runs with (see main).
	procs = 1
)

// config is one benchmark invocation.
type config struct {
	root    string // repository root holding specs/
	golden  string // reference reports
	outDir  string // result stores and span files
	w       workloadDef
	seed    uint64
	seconds float64
	trace   bool
	// exe is this benchmark's executable; "exe child ..." runs a child
	// process.
	exe string
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: "+workloadNames())
		seed    = fs.Uint64("seed", 7, "workload seed; 7 and 12345 are checked against the golden reports")
		seconds = fs.Float64("seconds", 10, "how long to keep sweeping, after set-up")
		trace   = fs.Int("trace", 0, "1 adds the traced run and reports per-layer metrics instead of end-to-end ones")
		outDir  = fs.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for result stores and span files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "usage: perfbench --workload {%s} [--seed N] [--seconds S] [--trace 0|1]\n", workloadNames())
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := config{root: ".", golden: filepath.Join("specs", "full", "golden.txt"), outDir: *outDir,
		w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, exe: exe}
	res, err := bench(context.Background(), cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, "|")
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench runs one workload and prints its human-readable report to out. An
// error means the benchmark could not run; a wrong report is a result with
// Correct false.
func bench(ctx context.Context, cfg config, out io.Writer) (result, error) {
	data, err := os.ReadFile(filepath.Join(cfg.root, cfg.w.Spec))
	if err != nil {
		return result{}, err
	}
	gf, err := os.Open(cfg.golden)
	if err != nil {
		return result{}, err
	}
	g, err := parseGolden(gf)
	gf.Close()
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return result{}, err
	}
	prov := newProvenance(cfg.root, cfg.w, cfg.seed, data)
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(out, "provenance %s\n", pj)

	// Cold set-up, each sample in a fresh process: E13's trace capture is
	// memoised per process, so only a new process pays it again.
	var setups []float64
	var last setupTimes
	for start := time.Now(); len(setups) < maxSetups && (len(setups) < minSetups || time.Since(start) < setupBudget); {
		if err := runChild(ctx, cfg, &last, "-mode", "setup"); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, last.Total())
	}
	fmt.Fprintf(out, "setup %s samples=%d median_s=%.6f min_s=%.6f max_s=%.6f builds=%d (last: decode %.3fms, from_spec %.3fms, threads %.3fms, prepare %.3fms)\n",
		cfg.w.Name, len(setups), median(setups), minOf(setups), maxOf(setups), last.Builds,
		last.Decode*1e3, last.FromSpec*1e3, last.Threads*1e3, last.Prepare*1e3)

	doc, err := decodeDoc(data, cfg.seed)
	if err != nil {
		return result{}, err
	}
	def, err := experiment.FromSpec(doc)
	if err != nil {
		return result{}, err
	}
	storeDir, err := os.MkdirTemp(cfg.outDir, "store-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(storeDir)

	// Measured sweeps, one per fresh process. On a virtual machine the
	// same sweep ran at about the same speed all through one process but
	// up to 1.5x faster or slower in the next, so the median is taken over
	// as many processes as the run has time for.
	chk := newChecker(g, cfg.seed)
	var samples []sweepSample
	var procWalls, rss []float64
	var firstLines []string
	for start := time.Now(); len(samples) < minSweeps || time.Since(start).Seconds()+median(procWalls) <= cfg.seconds; {
		var run sweepRun
		t := time.Now()
		if err := runChild(ctx, cfg, &run, "-mode", "sweep", "-store", storeDir); err != nil {
			return result{}, fmt.Errorf("measured sweep: %w", err)
		}
		procWalls = append(procWalls, time.Since(t).Seconds())
		if len(run.Lines) != len(def.Variants) || len(run.Errors) != len(def.Variants) {
			return result{}, fmt.Errorf("measuring process returned %d reports for %d variants", len(run.Lines), len(def.Variants))
		}
		for i, v := range def.Variants {
			checkLine(chk, cfg.seed, def.Name, v.Label, run.Lines[i], run.Errors[i])
		}
		if firstLines == nil {
			firstLines = run.Lines
		}
		samples = append(samples, run.Sample)
		rss = append(rss, run.MaxRSSMB)
	}
	col := func(f func(sweepSample) float64) []float64 {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = f(s)
		}
		return xs
	}
	walls := col(func(s sweepSample) float64 { return s.Wall })
	sweepS := median(walls)
	e2e := map[string]float64{
		"sweep_s":       sweepS,
		"setup_s":       median(setups),
		"cpu_s":         median(col(func(s sweepSample) float64 { return s.CPU })),
		"alloc_mb":      median(col(func(s sweepSample) float64 { return s.AllocMB })),
		"allocs_m":      median(col(func(s sweepSample) float64 { return s.AllocsM })),
		"max_rss_mb":    median(rss),
		"sim_ios_per_s": ratio(samples[0].AppIOs, sweepS),
	}
	fmt.Fprintf(out, "sweeps %s n=%d wall_s min=%.6f median=%.6f max=%.6f variants=%d\n",
		cfg.w.Name, len(samples), minOf(walls), sweepS, maxOf(walls), len(def.Variants))
	fmt.Fprintf(out, "digest %s %s\n", cfg.w.Name, digest(firstLines))

	var layer map[string]float64
	if cfg.trace {
		var tres tracedResult
		spans := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.json", cfg.w.Name, cfg.seed))
		traceStore, err := os.MkdirTemp(cfg.outDir, "store-")
		if err != nil {
			return result{}, err
		}
		defer os.RemoveAll(traceStore)
		if err := runChild(ctx, cfg, &tres, "-mode", "trace", "-store", traceStore, "-spans", spans); err != nil {
			return result{}, fmt.Errorf("traced run: %w", err)
		}
		if len(tres.RunnerLines) != len(def.Variants) || len(tres.RedriveLines) != len(def.Variants) || len(tres.Errors) != len(def.Variants) {
			return result{}, fmt.Errorf("traced run returned %d/%d/%d reports for %d variants",
				len(tres.RunnerLines), len(tres.RedriveLines), len(tres.Errors), len(def.Variants))
		}
		for i, v := range def.Variants {
			checkLine(chk, cfg.seed, def.Name, v.Label, tres.RunnerLines[i], tres.Errors[i])
			checkLine(chk, cfg.seed, def.Name, v.Label, tres.RedriveLines[i], tres.Errors[i])
		}
		layer = tres.Metrics
		var shares float64
		for name, v := range layer {
			if strings.HasSuffix(name, ".cpu_share") {
				shares += v
			}
		}
		if shares > 1+1e-9 {
			return result{}, fmt.Errorf("traced run: cpu shares sum to %.4f > 1", shares)
		}
		fmt.Fprintf(out, "traced %s sweep_s=%.6f untraced_median_s=%.6f overhead_s=%.6f spans=%s\n",
			cfg.w.Name, tres.SweepS, sweepS, tres.SweepS-sweepS, spans)
	}

	failRatio := ratio(float64(chk.failed), float64(chk.attempted))
	for _, m := range chk.mismatch {
		fmt.Fprintf(out, "FAIL %s\n", m)
	}
	fmt.Fprintf(out, "check %s reference=%s attempted=%d failed=%d\n", cfg.w.Name, chk.reference(), chk.attempted, chk.failed)

	res := result{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: map[string]metric{}}
	for _, md := range endToEnd {
		fmt.Fprintf(out, "metric %s %s %.6g %s\n", cfg.w.Name, md.Name, e2e[md.Name], md.Unit)
		if !cfg.trace {
			res.Metrics[md.Name] = metric{e2e[md.Name], md.Unit}
		}
	}
	fmt.Fprintf(out, "metric %s fail_ratio %.6g ratio\n", cfg.w.Name, failRatio)
	if cfg.trace {
		layer["fail_ratio"] = failRatio
		for _, md := range perLayer {
			v, ok := layer[md.Name]
			if !ok {
				return result{}, fmt.Errorf("traced run did not report %s", md.Name)
			}
			if md.Name != "fail_ratio" {
				fmt.Fprintf(out, "layer %s %s %.6g %s\n", cfg.w.Name, md.Name, v, md.Unit)
			}
			res.Metrics[md.Name] = metric{v, md.Unit}
		}
	}
	return res, nil
}

func checkLine(chk *checker, seed uint64, experiment, label, line, errMsg string) {
	var err error
	if errMsg != "" {
		err = fmt.Errorf("%s", errMsg)
	}
	chk.check(seed, experiment, label, line, err)
}

// runChild runs one child process of the benchmark and decodes the JSON
// object it prints into v.
func runChild(ctx context.Context, cfg config, v any, mode ...string) error {
	args := append(append([]string{"child"}, mode...), "-root", cfg.root, "-workload", cfg.w.Name, "-spec", cfg.w.Spec,
		"-seed", fmt.Sprint(cfg.seed))
	cmd := exec.CommandContext(ctx, cfg.exe, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return json.Unmarshal(stdout.Bytes(), v)
}

// childMain is a child process: one cold set-up, one measured sweep, or
// the traced run.
func childMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench child", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mode  = fs.String("mode", "", "setup | sweep | trace")
		root  = fs.String("root", ".", "repository root")
		name  = fs.String("workload", "", "workload name")
		path  = fs.String("spec", "", "workload document, relative to root")
		seed  = fs.Uint64("seed", 7, "workload seed")
		store = fs.String("store", "", "result store directory (sweep, trace)")
		spans = fs.String("spans", "", "span file to write (trace)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *mode == "trace" {
		// Sample every 64 KiB allocated rather than every 512 KiB, before
		// the run allocates.
		runtime.MemProfileRate = 64 << 10
	}
	w := workloadDef{Name: *name, Spec: *path}
	data, err := os.ReadFile(filepath.Join(*root, w.Spec))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	ctx := context.Background()
	var out any
	switch *mode {
	case "setup":
		_, _, t, e := setUp(ctx, data, *seed, experiment.NewStateCache(""))
		out, err = t, e
	case "sweep":
		out, err = measure(ctx, data, *seed, *store)
	case "trace":
		prov := newProvenance(*root, w, *seed, data)
		out, err = tracedRun(ctx, data, *seed, *store, *spans, prov)
	default:
		err = fmt.Errorf("unknown child mode %q", *mode)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(out); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}
