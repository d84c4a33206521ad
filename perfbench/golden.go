package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"strings"

	"eagletree/internal/core"
)

// reportLine renders one variant's report exactly as specs/full/golden.txt
// holds it.
func reportLine(seed uint64, experiment, label string, r core.Report) string {
	return fmt.Sprintf("seed=%d %s %s %#v", seed, experiment, label, r)
}

// goldenKey identifies one line of the reference file.
type goldenKey struct {
	Seed       uint64
	Experiment string
	Label      string
}

// golden is a parsed reference file: every line by its key, plus the seeds
// it pins.
type golden struct {
	lines map[goldenKey]string
	seeds map[uint64]bool
}

// parseGolden reads reference lines of the form
// "seed=S NAME LABEL core.Report{...}". Labels may not contain spaces; the
// report is everything from " core.Report{" on.
func parseGolden(r io.Reader) (*golden, error) {
	g := &golden{lines: map[goldenKey]string{}, seeds: map[uint64]bool{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" {
			continue
		}
		head, _, ok := strings.Cut(line, " core.Report{")
		fields := strings.Fields(head)
		if !ok || len(fields) != 3 || !strings.HasPrefix(fields[0], "seed=") {
			return nil, fmt.Errorf("golden line %d: want \"seed=S NAME LABEL core.Report{...}\"", n)
		}
		seed, err := strconv.ParseUint(strings.TrimPrefix(fields[0], "seed="), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("golden line %d: %w", n, err)
		}
		k := goldenKey{seed, fields[1], fields[2]}
		if _, dup := g.lines[k]; dup {
			return nil, fmt.Errorf("golden line %d: %v repeats", n, k)
		}
		g.lines[k] = line
		g.seeds[seed] = true
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	return g, nil
}

// checker compares every rendered report with its reference and keeps the
// failure accounting behind fail_ratio. On a seed the golden file pins, the
// reference is the committed line; on any other seed it is the first run's
// line for the same variant, so every repeat must reproduce it.
type checker struct {
	golden    *golden
	pinned    bool
	first     map[string]string // label -> first run's line
	attempted int
	failed    int
	mismatch  []string // first few diagnostics
}

func newChecker(g *golden, seed uint64) *checker {
	return &checker{golden: g, pinned: g.seeds[seed], first: map[string]string{}}
}

// check records one variant execution. err is the variant's own failure
// (an error or deadlock); line is its rendered report when err is nil.
func (c *checker) check(seed uint64, experiment, label, line string, err error) {
	c.attempted++
	want, ok := c.first[label]
	if c.pinned {
		want, ok = c.golden.lines[goldenKey{seed, experiment, label}]
	}
	switch {
	case err != nil:
		c.fail(fmt.Sprintf("%s %s: %v", experiment, label, err))
	case c.pinned && !ok:
		c.fail(fmt.Sprintf("%s %s: no reference line for seed %d", experiment, label, seed))
	case !ok:
		c.first[label] = line
	case line != want:
		c.fail(fmt.Sprintf("%s %s: report differs from the reference", experiment, label))
	}
}

func (c *checker) fail(msg string) {
	c.failed++
	if len(c.mismatch) < 8 {
		c.mismatch = append(c.mismatch, msg)
	}
}

// reference names what reports were compared with.
func (c *checker) reference() string {
	if c.pinned {
		return "golden"
	}
	return "first-run"
}

// digest is the sha256 of a workload's rendered reports in variant order.
func digest(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		io.WriteString(h, l)
		io.WriteString(h, "\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}
