package wl

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"eagletree/internal/flash"
	"eagletree/internal/ftl"
	"eagletree/internal/sim"
)

// referenceVictims is the brute-force oracle for Leveler.Victims: the
// selection as first written, before the top-K column walk. It collects every
// young, idle, live victim candidate of a LUN through VictimCandidates,
// stable-insertion-sorts them by erase count and takes the first
// MaxMigrationsPerScan.
func referenceVictims(bm *ftl.BlockManager, cfg Config, now sim.Time) []flash.BlockID {
	if !cfg.Static {
		return nil
	}
	var out []flash.BlockID
	for lun := 0; lun < bm.LUNs(); lun++ {
		n, sumErase := bm.WearStats(lun)
		if n == 0 {
			continue
		}
		meanErase := float64(sumErase) / float64(n)
		if meanErase < float64(cfg.AgeSlack) {
			continue
		}
		avgInterval := float64(now) / (meanErase + 1)
		idleCutoff := sim.Duration(cfg.IdleFactor * avgInterval)

		type scored struct {
			b  flash.BlockID
			ec int
		}
		var picks []scored
		bm.VictimCandidates(lun, func(b flash.BlockID, meta flash.BlockMeta) {
			young := float64(meta.EraseCount) <= meanErase-float64(cfg.AgeSlack)
			idle := now.Sub(meta.LastErase) > idleCutoff
			if young && idle && meta.ValidPages > 0 {
				picks = append(picks, scored{b, meta.EraseCount})
			}
		})
		for i := 1; i < len(picks); i++ {
			for j := i; j > 0 && picks[j].ec < picks[j-1].ec; j-- {
				picks[j], picks[j-1] = picks[j-1], picks[j]
			}
		}
		max := cfg.MaxMigrationsPerScan
		if max <= 0 {
			max = 1
		}
		for i := 0; i < len(picks) && i < max; i++ {
			out = append(out, picks[i].b)
		}
	}
	return out
}

// agedDevice builds a block manager whose metadata columns are drawn from
// rng: erase counts in [0, ecSpan) (a small span forces ties), last-erase
// times in [0, now), write pointers and valid counts anywhere in range,
// about one block in twenty bad, and up to NumStreams open frontiers per
// LUN. The columns are written straight into the array's column view: the
// wear-leveling scan reads nothing else, so the array's own indexes, left
// stale, never matter here.
func agedDevice(rng *rand.Rand, g flash.Geometry, reserved int, ecSpan int32, now sim.Time) (*ftl.BlockManager, flash.BlockColumns) {
	a := flash.NewArray(g, flash.TimingSLC(), flash.Features{})
	for lun := 0; lun < g.LUNs(); lun++ {
		for blk := 0; blk < g.BlocksPerLUN; blk++ {
			if rng.Intn(20) == 0 {
				a.MarkBad(flash.BlockID{LUN: lun, Block: blk})
			}
		}
	}
	cols := a.Columns()
	for i := range cols.EraseCount {
		cols.EraseCount[i] = rng.Int31n(ecSpan)
		cols.LastErase[i] = sim.Time(rng.Int63n(int64(now)))
		wp := rng.Int31n(int32(g.PagesPerBlock) + 1)
		cols.WritePtr[i] = wp
		cols.ValidPages[i] = rng.Int31n(wp + 1)
	}
	bm := ftl.NewBlockManager(a, reserved, 1, false)
	st := bm.State()
	for lun := range st.LUNs {
		var open []ftl.OpenBlockState
		for s, n := 0, rng.Intn(ftl.NumStreams+1); s < n; s++ {
			blk := reserved + rng.Intn(g.BlocksPerLUN-reserved)
			dup := false
			for _, o := range open {
				dup = dup || o.Block == blk
			}
			if !dup {
				open = append(open, ftl.OpenBlockState{Stream: uint8(s), Block: blk})
			}
		}
		st.LUNs[lun].Open = open
	}
	if err := bm.RestoreState(st); err != nil {
		panic(err)
	}
	return bm, cols
}

// pinCutoffs makes both of the scan's cut-offs land exactly on blocks, where
// random columns almost never put them. On every LUN it raises one block's
// erase count until the mean is a whole number, so mean-AgeSlack can equal a
// block's count, and then sets a few blocks' last erase exactly idleCutoff
// before now, one nanosecond either side, with idleCutoff computed as the
// scan computes it.
func pinCutoffs(rng *rand.Rand, bm *ftl.BlockManager, cols flash.BlockColumns, g flash.Geometry, cfg Config, now sim.Time) {
	for lun := 0; lun < g.LUNs(); lun++ {
		base := lun * g.BlocksPerLUN
		n, sum := bm.WearStats(lun)
		if n == 0 {
			continue
		}
		for blk := bm.ReservedTrans(); blk < g.BlocksPerLUN; blk++ {
			if !cols.Bad[base+blk] {
				cols.EraseCount[base+blk] += int32((n - sum%n) % n)
				break
			}
		}
		n, sum = bm.WearStats(lun)
		avgInterval := float64(now) / (float64(sum)/float64(n) + 1)
		edge := now - sim.Time(sim.Duration(cfg.IdleFactor*avgInterval))
		for i := 0; i < 6; i++ {
			blk := bm.ReservedTrans() + rng.Intn(g.BlocksPerLUN-bm.ReservedTrans())
			cols.LastErase[base+blk] = edge + sim.Time(i%3-1)
		}
	}
}

// TestVictimsMatchReference checks the top-K column walk against the
// collect-sort-take oracle over random columns, migration caps 1–4,
// erase-count spans narrow enough to force ties at the cut, and (in half the
// cases) blocks sitting exactly on the young and idle cut-offs.
func TestVictimsMatchReference(t *testing.T) {
	g := flash.Geometry{Channels: 1, LUNsPerChannel: 2, BlocksPerLUN: 100, PagesPerBlock: 4, PageSize: 4096}
	const now = sim.Time(10 * sim.Second)
	var scans, picked int
	f := func(seed int64, kRaw, spanRaw, slackRaw, idleRaw, resRaw uint8, pin bool) bool {
		rng := rand.New(rand.NewSource(seed))
		ecSpan := int32(2 + spanRaw%40) // 2..41: narrow spans tie heavily
		bm, cols := agedDevice(rng, g, int(resRaw%4), ecSpan, now)
		cfg := DefaultConfig()
		cfg.MaxMigrationsPerScan = 1 + int(kRaw%4)
		cfg.AgeSlack = int(slackRaw % 4)
		cfg.IdleFactor = 0.05 + float64(idleRaw%40)/20 // 0.05..2: idle filter bites
		if pin {
			pinCutoffs(rng, bm, cols, g, cfg, now)
		}
		lvl := NewLeveler(bm, cfg)
		// Two scans at different times: the second reuses the first's buffers.
		for _, at := range []sim.Time{now, now * 3} {
			want := referenceVictims(bm, cfg, at)
			got := lvl.Victims(at)
			scans++
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			picked++
			if !reflect.DeepEqual(got, want) {
				t.Logf("seed %d k=%d span=%d slack=%d idle=%.2f at %v: got %v, want %v",
					seed, cfg.MaxMigrationsPerScan, ecSpan, cfg.AgeSlack, cfg.IdleFactor, at, got, want)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(1))}
	if testing.Short() {
		cfg.MaxCount = 100
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
	// A generator whose scans mostly come back empty would compare nothing.
	if picked*2 < scans {
		t.Fatalf("only %d of %d scans picked any victim", picked, scans)
	}
}

// fullE4Leveler is a static leveler over the full-scale E4 geometry (4 LUNs
// of 128 blocks, 32 pages) with aged columns: erase counts spread over 0..59
// and blocks idle since anywhere in the device's 10 s life, so every scan
// finds young, idle candidates on every LUN.
func fullE4Leveler() (*Leveler, sim.Time) {
	g := flash.Geometry{Channels: 2, LUNsPerChannel: 2, BlocksPerLUN: 128, PagesPerBlock: 32, PageSize: 4096}
	const now = sim.Time(10 * sim.Second)
	bm, _ := agedDevice(rand.New(rand.NewSource(7)), g, 0, 60, now)
	return NewLeveler(bm, DefaultConfig()), now
}

// TestLevelerVictimsAllocs guards the scan's zero-allocation contract.
func TestLevelerVictimsAllocs(t *testing.T) {
	lvl, now := fullE4Leveler()
	if n := len(lvl.Victims(now)); n != 4 {
		t.Fatalf("aged device produced %d victims, want one per LUN", n)
	}
	if allocs := testing.AllocsPerRun(200, func() { lvl.Victims(now) }); allocs != 0 {
		t.Fatalf("%.2f allocs per Victims scan, want 0", allocs)
	}
}

// BenchmarkWLVictims measures one static wear-leveling scan of every LUN.
func BenchmarkWLVictims(b *testing.B) {
	lvl, now := fullE4Leveler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lvl.Victims(now)
	}
}
