package experiment

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"eagletree/internal/core"
)

// TestSnapshotRestoreDeterministic is the acceptance gate for the snapshot
// flow: for E11 (fresh vs aged preparation) and E13 (trace replay over an
// aged device), per-variant Reports from snapshot-restored devices must be
// bit-identical to freshly prepared runs — on the sequential path and on the
// RunWorkers parallel path alike. NoPrepareCache re-runs preparation for
// every variant; the cached runs restore one shared snapshot per distinct
// prepared state.
func TestSnapshotRestoreDeterministic(t *testing.T) {
	for _, def := range []Definition{mustLookup(t, Small, "E11"), mustLookup(t, Small, "E13")} {
		def := def
		t.Run(def.Name, func(t *testing.T) {
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
					t.Fatalf("%d-worker cached results differ from fresh preparation:\nfresh:  %+v\ncached: %+v",
						workers, fresh, cached)
				}
			}
		})
	}
}

// TestStateCacheSharesPreparation: variants of one experiment that share a
// preparation-relevant configuration must build exactly one snapshot.
func TestStateCacheSharesPreparation(t *testing.T) {
	def := mustLookup(t, Small, "E3") // four greediness variants, one aged state
	cache := NewStateCache("")
	builds := 0
	countingGet := func(key string, build func() ([]byte, error)) ([]byte, error) {
		return cache.Get(key, func() ([]byte, error) {
			builds++
			return build()
		})
	}
	for _, v := range def.Variants {
		cfg := def.Base()
		if v.Mutate != nil {
			v.Mutate(&cfg)
		}
		prep, custom := def.prepFor(v)
		if custom != nil || prep.None() {
			t.Fatalf("variant %q does not use declared preparation", v.Label)
		}
		pcfg := prepConfig(cfg, def.Base())
		key, err := prepKey(pcfg, prep)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := countingGet(key, func() ([]byte, error) {
			return buildPrepared(context.Background(), pcfg, prep)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if builds != 1 {
		t.Fatalf("4 greediness variants built %d prepared states, want 1 shared", builds)
	}
}

// TestStateCacheDisk: a disk-backed cache persists snapshots across cache
// instances, and silently rebuilds entries that were corrupted on disk.
func TestStateCacheDisk(t *testing.T) {
	dir := t.TempDir()
	key := "test-key"
	e11 := mustLookup(t, Small, "E11")
	aged := mustLookupSpec(t, Small, "E11").Variants[1] // fill + two aging passes
	builds := 0
	build := func() ([]byte, error) {
		builds++
		cfg := e11.Base()
		return buildPrepared(context.Background(), prepConfig(cfg, e11.Base()), prepFromSpec(*aged.Prep))
	}

	c1 := NewStateCache(dir)
	first, err := c1.Get(key, build)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewStateCache(dir)
	second, err := c2.Get(key, build)
	if err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Fatalf("disk cache rebuilt: %d builds, want 1", builds)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("disk cache returned different bytes")
	}

	// Corrupt every cached file; a fresh cache must rebuild, not trust it.
	files, err := filepath.Glob(filepath.Join(dir, "*.state"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no cache files written (err=%v)", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xFF
		if err := os.WriteFile(f, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c3 := NewStateCache(dir)
	third, err := c3.Get(key, build)
	if err != nil {
		t.Fatal(err)
	}
	if builds != 2 {
		t.Fatalf("corrupt cache entry was trusted: %d builds, want 2", builds)
	}
	if !reflect.DeepEqual(first, third) {
		t.Fatal("rebuilt bytes differ from original build")
	}
}

// TestPrepKeyDistinguishesConfigs: preparation-relevant knobs must change
// the cache key; measurement-only knobs must not.
func TestPrepKeyDistinguishesConfigs(t *testing.T) {
	def := mustLookup(t, Small, "E3")
	fillAge := *mustLookupSpec(t, Small, "E3").Prep
	fill := *mustLookupSpec(t, Small, "E4").Prep
	base := def.Base()
	keyOf := func(mut func(*core.Config)) string {
		cfg := def.Base()
		if mut != nil {
			mut(&cfg)
		}
		key, err := prepKey(prepConfig(cfg, base), prepFromSpec(fillAge))
		if err != nil {
			t.Fatal(err)
		}
		return key
	}
	ref := keyOf(nil)
	if keyOf(func(c *core.Config) { c.Controller.GCGreediness = 8 }) != ref {
		t.Fatal("greediness (a measurement knob) changed the prep key")
	}
	if keyOf(func(c *core.Config) { c.OS.QueueDepth = 4 }) != ref {
		t.Fatal("OS queue depth (a measurement knob) changed the prep key")
	}
	if keyOf(func(c *core.Config) { c.Controller.Geometry.BlocksPerLUN = 128 }) == ref {
		t.Fatal("geometry change did not change the prep key")
	}
	if keyOf(func(c *core.Config) { c.Seed = 99 }) == ref {
		t.Fatal("seed change did not change the prep key")
	}
	if keyOf(func(c *core.Config) { c.Controller.Overprovision = 0.3 }) == ref {
		t.Fatal("overprovision change did not change the prep key")
	}
	fillKey, err := prepKey(prepConfig(def.Base(), base), prepFromSpec(fill))
	if err != nil {
		t.Fatal(err)
	}
	if fillKey == ref {
		t.Fatal("prep spec change did not change the prep key")
	}
}
