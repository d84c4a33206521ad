package spec

import (
	"fmt"

	"eagletree/internal/controller"
	"eagletree/internal/fault"
	"eagletree/internal/flash"
	"eagletree/internal/gc"
	"eagletree/internal/hotcold"
	"eagletree/internal/iface"
	"eagletree/internal/osched"
	"eagletree/internal/sched"
	"eagletree/internal/sim"
	"eagletree/internal/wl"
)

// MappingChoice is the resolved value of a mapping reference: the scheme
// plus its DFTL sizing. Mapping is not an interface in the controller
// configuration, so the registry trades in this small carrier struct.
type MappingChoice struct {
	Scheme              controller.MappingScheme
	CMTEntries          int
	ReservedTransBlocks int
}

func prefString(p sched.Preference) string {
	switch p {
	case sched.PreferReads:
		return "reads"
	case sched.PreferWrites:
		return "writes"
	default:
		return "none"
	}
}

func internalString(o sched.InternalOrder) string {
	switch o {
	case sched.InternalLast:
		return "last"
	case sched.InternalFirst:
		return "first"
	default:
		return "equal"
	}
}

func init() {
	registerPolicies()
	registerAllocators()
	registerGCPolicies()
	registerWLModes()
	registerDetectors()
	registerMappings()
	registerTimings()
	registerFaultModels()
	registerOSPolicies()
}

func registerPolicies() {
	Register(Component{
		Kind: KindPolicy, Name: "fifo",
		Doc:  "dispatch strictly in arrival order (baseline)",
		Make: func(p *Params) (any, error) { return &sched.FIFO{}, nil },
		Describe: func(v any) (map[string]any, bool) {
			_, ok := v.(*sched.FIFO)
			return map[string]any{}, ok
		},
	})
	Register(Component{
		Kind: KindPolicy, Name: "priority",
		Doc: "score by tag, read/write preference and internal-IO order",
		Params: []Param{
			{Name: "prefer", Type: TString, Doc: "none | reads | writes"},
			{Name: "internal", Type: TString, Doc: "equal | last | first (GC/WL/mapping IOs vs app IOs)"},
			{Name: "use_tags", Type: TBool, Doc: "honor the open-interface priority tag"},
		},
		Make: func(p *Params) (any, error) {
			pol := &sched.Priority{UseTags: p.Bool("use_tags", false)}
			switch p.Enum("prefer", "none", "none", "reads", "writes") {
			case "reads":
				pol.Prefer = sched.PreferReads
			case "writes":
				pol.Prefer = sched.PreferWrites
			}
			switch p.Enum("internal", "equal", "equal", "last", "first") {
			case "last":
				pol.Internal = sched.InternalLast
			case "first":
				pol.Internal = sched.InternalFirst
			}
			return pol, nil
		},
		Describe: func(v any) (map[string]any, bool) {
			pol, ok := v.(*sched.Priority)
			if !ok {
				return nil, false
			}
			return map[string]any{
				"prefer":   prefString(pol.Prefer),
				"internal": internalString(pol.Internal),
				"use_tags": pol.UseTags,
			}, true
		},
	})
	Register(Component{
		Kind: KindPolicy, Name: "deadline",
		Doc: "overdue requests first (starvation guard), fallback order otherwise",
		Params: []Param{
			{Name: "read_deadline", Type: TDuration, Doc: "read deadline from submission (0 = never)"},
			{Name: "write_deadline", Type: TDuration, Doc: "write deadline from submission (0 = never)"},
			{Name: "internal_deadline", Type: TDuration, Doc: "internal-IO deadline (0 = never)"},
			{Name: "max_consecutive_overdue", Type: TInt, Doc: "bound on overdue preemption (0 = unbounded)"},
			{Name: "fallback", Type: TComponent, Of: KindPolicy, Doc: "ordering when nothing is overdue (default FIFO); it must keep no ordering state across pops, so fair and a deadline with max_consecutive_overdue > 0 are rejected"},
		},
		Make: func(p *Params) (any, error) {
			d := &sched.Deadline{
				ReadDeadline:          p.Dur("read_deadline", 0),
				WriteDeadline:         p.Dur("write_deadline", 0),
				InternalDeadline:      p.Dur("internal_deadline", 0),
				MaxConsecutiveOverdue: p.Int("max_consecutive_overdue", 0),
			}
			if fb := p.Component("fallback", KindPolicy); fb != nil {
				// Every pop drains the lent queue through the fallback's Pop,
				// which would advance any state it keeps across pops.
				switch f := fb.(type) {
				case *sched.Fair:
					return nil, &ParamError{Context: p.context(), Param: "fallback",
						Err: fmt.Errorf("fair keeps its turn and credits across pops and cannot be a fallback")}
				case *sched.Deadline:
					if f.MaxConsecutiveOverdue > 0 {
						return nil, &ParamError{Context: p.context(), Param: "fallback",
							Err: fmt.Errorf("a deadline with max_consecutive_overdue > 0 keeps its overdue run across pops and cannot be a fallback")}
					}
				}
				d.Fallback = fb.(sched.Policy)
			}
			return d, nil
		},
		Describe: func(v any) (map[string]any, bool) {
			d, ok := v.(*sched.Deadline)
			if !ok {
				return nil, false
			}
			params := map[string]any{
				"read_deadline":           durString(d.ReadDeadline),
				"write_deadline":          durString(d.WriteDeadline),
				"internal_deadline":       durString(d.InternalDeadline),
				"max_consecutive_overdue": d.MaxConsecutiveOverdue,
			}
			if d.Fallback != nil {
				ref, err := Describe(KindPolicy, d.Fallback)
				if err != nil {
					return nil, false
				}
				params["fallback"] = ref
			}
			return params, true
		},
	})
	Register(Component{
		Kind: KindPolicy, Name: "fair",
		Doc: "weighted round-robin across IO sources",
		Params: []Param{
			{Name: "weights", Type: TInts, Doc: "per-source weights indexed by iface.Source (missing = 1)"},
		},
		Make: func(p *Params) (any, error) {
			f := &sched.Fair{}
			w := p.Ints("weights")
			if len(w) > len(f.Weights) {
				return nil, &ParamError{Context: p.context(), Param: "weights",
					Err: fmt.Errorf("%d weights for %d sources", len(w), len(f.Weights))}
			}
			copy(f.Weights[:], w)
			return f, nil
		},
		Describe: func(v any) (map[string]any, bool) {
			f, ok := v.(*sched.Fair)
			if !ok {
				return nil, false
			}
			return map[string]any{"weights": append([]int(nil), f.Weights[:]...)}, true
		},
	})
}

func registerAllocators() {
	Register(Component{
		Kind: KindAllocator, Name: "leastloaded",
		Doc:  "pick the allocatable idle LUN whose reservations drain soonest",
		Make: func(p *Params) (any, error) { return sched.LeastLoaded{}, nil },
		Describe: func(v any) (map[string]any, bool) {
			switch v.(type) {
			case sched.LeastLoaded, *sched.LeastLoaded:
				return map[string]any{}, true
			}
			return nil, false
		},
	})
	Register(Component{
		Kind: KindAllocator, Name: "roundrobin",
		Doc:  "rotate writes across LUNs",
		Make: func(p *Params) (any, error) { return &sched.RoundRobin{}, nil },
		Describe: func(v any) (map[string]any, bool) {
			_, ok := v.(*sched.RoundRobin)
			return map[string]any{}, ok
		},
	})
	Register(Component{
		Kind: KindAllocator, Name: "striped",
		Doc:  "statically map LPN mod N to a LUN (RAID-like layout)",
		Make: func(p *Params) (any, error) { return sched.Striped{}, nil },
		Describe: func(v any) (map[string]any, bool) {
			switch v.(type) {
			case sched.Striped, *sched.Striped:
				return map[string]any{}, true
			}
			return nil, false
		},
	})
	Register(Component{
		Kind: KindAllocator, Name: "patternaware",
		Doc: "stripe detected sequential runs, least-loaded otherwise",
		Params: []Param{
			{Name: "min_run", Type: TInt, Doc: "run length at which a stream counts as sequential (0 = 8)"},
		},
		Make: func(p *Params) (any, error) {
			return &sched.PatternAware{Detector: &sched.PatternDetector{MinRun: p.Int("min_run", 0)}}, nil
		},
		Describe: func(v any) (map[string]any, bool) {
			a, ok := v.(*sched.PatternAware)
			if !ok {
				return nil, false
			}
			minRun := 0
			if a.Detector != nil {
				minRun = a.Detector.MinRun
			}
			return map[string]any{"min_run": minRun}, true
		},
	})
}

func registerGCPolicies() {
	Register(Component{
		Kind: KindGCPolicy, Name: "greedy",
		Doc:  "victim with the fewest live pages",
		Make: func(p *Params) (any, error) { return gc.Greedy{}, nil },
		Describe: func(v any) (map[string]any, bool) {
			switch v.(type) {
			case gc.Greedy, *gc.Greedy:
				return map[string]any{}, true
			}
			return nil, false
		},
	})
	Register(Component{
		Kind: KindGCPolicy, Name: "costbenefit",
		Doc:  "(1-u)/(2u) * age cost-benefit score",
		Make: func(p *Params) (any, error) { return gc.CostBenefit{}, nil },
		Describe: func(v any) (map[string]any, bool) {
			switch v.(type) {
			case gc.CostBenefit, *gc.CostBenefit:
				return map[string]any{}, true
			}
			return nil, false
		},
	})
	Register(Component{
		Kind: KindGCPolicy, Name: "random",
		Doc:  "uniformly random non-full victim (baseline); fixed-seed RNG",
		Make: func(p *Params) (any, error) { return &gc.Random{}, nil },
		Describe: func(v any) (map[string]any, bool) {
			_, ok := v.(*gc.Random)
			return map[string]any{}, ok
		},
	})
}

// wlParams are the tuning knobs shared by every wear-leveling mode.
var wlParams = []Param{
	{Name: "check_interval", Type: TDuration, Doc: "static-scan period in virtual time"},
	{Name: "age_slack", Type: TInt, Doc: "erases below average for a block to count as young"},
	{Name: "idle_factor", Type: TFloat, Doc: "average erase intervals without an erase to count as idle"},
	{Name: "max_migrations_per_scan", Type: TInt, Doc: "victim blocks one static scan may queue"},
}

func registerWLModes() {
	mode := func(name, doc string, static, dynamic bool) {
		Register(Component{
			Kind: KindWL, Name: name, Doc: doc,
			Params: wlParams,
			Make: func(p *Params) (any, error) {
				cfg := wl.DefaultConfig()
				cfg.Static, cfg.Dynamic = static, dynamic
				cfg.CheckInterval = p.Dur("check_interval", cfg.CheckInterval)
				cfg.AgeSlack = p.Int("age_slack", cfg.AgeSlack)
				cfg.IdleFactor = p.Float("idle_factor", cfg.IdleFactor)
				cfg.MaxMigrationsPerScan = p.Int("max_migrations_per_scan", cfg.MaxMigrationsPerScan)
				return cfg, nil
			},
			Describe: func(v any) (map[string]any, bool) {
				cfg, ok := v.(wl.Config)
				if !ok || cfg.Static != static || cfg.Dynamic != dynamic {
					return nil, false
				}
				return map[string]any{
					"check_interval":          durString(cfg.CheckInterval),
					"age_slack":               cfg.AgeSlack,
					"idle_factor":             cfg.IdleFactor,
					"max_migrations_per_scan": cfg.MaxMigrationsPerScan,
				}, true
			},
		})
	}
	mode("off", "no wear leveling", false, false)
	mode("static", "periodic static scans only", true, false)
	mode("dynamic", "age-aware allocation only", false, true)
	mode("full", "static scans plus age-aware allocation", true, true)
}

func registerDetectors() {
	Register(Component{
		Kind: KindDetector, Name: "none",
		Doc:  "classify nothing (always unknown)",
		Make: func(p *Params) (any, error) { return hotcold.None{}, nil },
		Describe: func(v any) (map[string]any, bool) {
			switch v.(type) {
			case hotcold.None, *hotcold.None:
				return map[string]any{}, true
			}
			return nil, false
		},
	})
	Register(Component{
		Kind: KindDetector, Name: "mbf",
		Doc: "multiple-bloom-filter hot-data identifier (Park & Du, MSST'11)",
		Params: []Param{
			{Name: "filters", Type: TInt, Doc: "number of bloom filters (V)"},
			{Name: "bits_per_filter", Type: TInt, Doc: "bits per filter (m)"},
			{Name: "hashes", Type: TInt, Doc: "hash functions (k)"},
			{Name: "decay_window", Type: TInt, Doc: "writes between filter rotations"},
			{Name: "hot_fraction", Type: TFloat, Doc: "fraction of filters that must match for hot"},
		},
		Make: func(p *Params) (any, error) {
			def := hotcold.DefaultMBFConfig()
			return hotcold.NewMBF(hotcold.MBFConfig{
				Filters:     p.Int("filters", def.Filters),
				BitsPerFilt: p.Int("bits_per_filter", def.BitsPerFilt),
				Hashes:      p.Int("hashes", def.Hashes),
				DecayWindow: p.Int("decay_window", def.DecayWindow),
				HotFraction: p.Float("hot_fraction", def.HotFraction),
			}), nil
		},
		Describe: func(v any) (map[string]any, bool) {
			m, ok := v.(*hotcold.MBF)
			if !ok {
				return nil, false
			}
			// Config() is the detector's *effective* configuration: the
			// behavior-relevant state the old reflective cache key could not
			// see (and special-cased).
			cfg := m.Config()
			return map[string]any{
				"filters":         cfg.Filters,
				"bits_per_filter": cfg.BitsPerFilt,
				"hashes":          cfg.Hashes,
				"decay_window":    cfg.DecayWindow,
				"hot_fraction":    cfg.HotFraction,
			}, true
		},
	})
	Register(Component{
		Kind: KindDetector, Name: "oracle",
		Doc: "perfect knowledge: LPNs below a bound are hot",
		Params: []Param{
			{Name: "hot_below", Type: TExpr, Doc: "LPNs below this are hot"},
		},
		Make: func(p *Params) (any, error) {
			return hotcold.Oracle{HotBelow: iface.LPN(p.Int64("hot_below", 0))}, nil
		},
		Describe: func(v any) (map[string]any, bool) {
			switch o := v.(type) {
			case hotcold.Oracle:
				return map[string]any{"hot_below": int64(o.HotBelow)}, true
			case *hotcold.Oracle:
				return map[string]any{"hot_below": int64(o.HotBelow)}, true
			}
			return nil, false
		},
	})
}

func registerMappings() {
	Register(Component{
		Kind: KindMapping, Name: "pagemap",
		Doc:  "full page map in controller RAM",
		Make: func(p *Params) (any, error) { return MappingChoice{Scheme: controller.MapPageRAM}, nil },
		Describe: func(v any) (map[string]any, bool) {
			m, ok := v.(MappingChoice)
			if !ok || m.Scheme != controller.MapPageRAM {
				return nil, false
			}
			return map[string]any{}, true
		},
	})
	Register(Component{
		Kind: KindMapping, Name: "dftl",
		Doc: "demand-cached mapping; the full table lives on flash",
		Params: []Param{
			{Name: "cmt", Type: TInt, Doc: "cached mapping table entries (0 = 4096)"},
			{Name: "trans_blocks", Type: TInt, Doc: "reserved translation blocks per LUN (0 = 2)"},
		},
		Make: func(p *Params) (any, error) {
			return MappingChoice{
				Scheme:              controller.MapDFTL,
				CMTEntries:          p.Int("cmt", 0),
				ReservedTransBlocks: p.Int("trans_blocks", 0),
			}, nil
		},
		Describe: func(v any) (map[string]any, bool) {
			m, ok := v.(MappingChoice)
			if !ok || m.Scheme != controller.MapDFTL {
				return nil, false
			}
			return map[string]any{"cmt": m.CMTEntries, "trans_blocks": m.ReservedTransBlocks}, true
		},
	})
}

var timingParams = []Param{
	{Name: "cell", Type: TString, Doc: "slc | mlc (endurance/reporting class)"},
	{Name: "cmd", Type: TDuration, Doc: "command/address cycle on the channel"},
	{Name: "transfer", Type: TDuration, Doc: "one page of data on the channel"},
	{Name: "page_read", Type: TDuration, Doc: "array sense time (tR)"},
	{Name: "page_write", Type: TDuration, Doc: "array program time (tPROG)"},
	{Name: "block_erase", Type: TDuration, Doc: "block erase time (tBERS)"},
	{Name: "endurance_limit", Type: TInt, Doc: "nominal P/E cycle budget per block"},
}

func registerTimings() {
	preset := func(name, doc string, t flash.Timing) {
		Register(Component{
			Kind: KindTiming, Name: name, Doc: doc,
			Make: func(p *Params) (any, error) { return t, nil },
			Describe: func(v any) (map[string]any, bool) {
				got, ok := v.(flash.Timing)
				if !ok || got != t {
					return nil, false
				}
				return map[string]any{}, true
			},
		})
	}
	preset("slc", "ONFI-class SLC timings (tR 25us, tPROG 200us)", flash.TimingSLC())
	preset("mlc", "MLC timings (tR 50us, tPROG 900us)", flash.TimingMLC())
	Register(Component{
		Kind: KindTiming, Name: "custom",
		Doc:    "explicit per-operation latencies",
		Params: timingParams,
		Make: func(p *Params) (any, error) {
			t := flash.Timing{
				Cmd:            p.Dur("cmd", 0),
				Transfer:       p.Dur("transfer", 0),
				PageRead:       p.Dur("page_read", 0),
				PageWrite:      p.Dur("page_write", 0),
				BlockErase:     p.Dur("block_erase", 0),
				EnduranceLimit: p.Int("endurance_limit", 0),
			}
			if p.Enum("cell", "slc", "slc", "mlc") == "mlc" {
				t.Cell = flash.MLC
			}
			return t, nil
		},
		Describe: func(v any) (map[string]any, bool) {
			t, ok := v.(flash.Timing)
			if !ok {
				return nil, false
			}
			cell := "slc"
			if t.Cell == flash.MLC {
				cell = "mlc"
			}
			return map[string]any{
				"cell":            cell,
				"cmd":             durString(t.Cmd),
				"transfer":        durString(t.Transfer),
				"page_read":       durString(t.PageRead),
				"page_write":      durString(t.PageWrite),
				"block_erase":     durString(t.BlockErase),
				"endurance_limit": t.EnduranceLimit,
			}, true
		},
	})
}

func registerFaultModels() {
	Register(Component{
		Kind: KindFault, Name: "none",
		Doc:  "no runtime faults (default): the idealized device",
		Make: func(p *Params) (any, error) { return nil, nil },
		Describe: func(v any) (map[string]any, bool) {
			return map[string]any{}, v == nil
		},
	})
	Register(Component{
		Kind: KindFault, Name: "random",
		Doc: "fixed per-operation failure probabilities, seeded RNG",
		Params: []Param{
			{Name: "program_fail", Type: TFloat, Doc: "per-program failure probability"},
			{Name: "erase_fail", Type: TFloat, Doc: "per-erase failure probability (retires the block)"},
			{Name: "grown_bad", Type: TFloat, Doc: "conditional probability a failed program retires the block"},
			{Name: "seed", Type: TInt, Doc: "fault RNG seed (0 = 1)"},
		},
		Make: func(p *Params) (any, error) {
			seed := uint64(p.Int("seed", 0))
			if seed == 0 {
				seed = 1
			}
			return fault.NewRandom(p.Float("program_fail", 0), p.Float("erase_fail", 0),
				p.Float("grown_bad", 0), seed), nil
		},
		Describe: func(v any) (map[string]any, bool) {
			m, ok := v.(*fault.Random)
			if !ok {
				return nil, false
			}
			// Configuration identity only: the model's RNG position is
			// runtime state and lives in device snapshots, not in specs.
			return map[string]any{
				"program_fail": m.PFail,
				"erase_fail":   m.EFail,
				"grown_bad":    m.PGrown,
				"seed":         int(m.Seed),
			}, true
		},
	})
	Register(Component{
		Kind: KindFault, Name: "wearout",
		Doc: "endurance-derived failure curve keyed on block erase counts",
		Params: []Param{
			{Name: "endurance", Type: TInt, Doc: "erase-count knee; align with the timing set's endurance_limit"},
			{Name: "shape", Type: TFloat, Doc: "curve exponent (higher = failures cluster at the limit)"},
			{Name: "program_factor", Type: TFloat, Doc: "program-failure probability as a fraction of the erase curve"},
			{Name: "seed", Type: TInt, Doc: "fault RNG seed (0 = 1)"},
		},
		Make: func(p *Params) (any, error) {
			seed := uint64(p.Int("seed", 0))
			if seed == 0 {
				seed = 1
			}
			shape := p.Float("shape", 0)
			if shape == 0 {
				shape = 4
			}
			return fault.NewWearout(p.Int("endurance", 0), shape,
				p.Float("program_factor", 0), seed), nil
		},
		Describe: func(v any) (map[string]any, bool) {
			m, ok := v.(*fault.Wearout)
			if !ok {
				return nil, false
			}
			return map[string]any{
				"endurance":      m.Endurance,
				"shape":          m.Shape,
				"program_factor": m.ProgramFactor,
				"seed":           int(m.Seed),
			}, true
		},
	})
	Register(Component{
		Kind: KindFault, Name: "at",
		Doc: "one deterministic fault at an erase-count or virtual-time threshold",
		Params: []Param{
			{Name: "at_erase_count", Type: TInt, Doc: "trigger at this block erase count (0 = off)"},
			{Name: "at_time", Type: TDuration, Doc: "trigger at this virtual time (0 = off)"},
			{Name: "op", Type: TString, Doc: "program | erase (which operation the fault hits)"},
			{Name: "grown", Type: TBool, Doc: "a triggered program failure also retires the block"},
		},
		Make: func(p *Params) (any, error) {
			return &fault.At{
				AtEraseCount: p.Int("at_erase_count", 0),
				AtTime:       sim.Time(p.Dur("at_time", 0)),
				OnErase:      p.Enum("op", "program", "program", "erase") == "erase",
				Grown:        p.Bool("grown", false),
			}, nil
		},
		Describe: func(v any) (map[string]any, bool) {
			m, ok := v.(*fault.At)
			if !ok {
				return nil, false
			}
			op := "program"
			if m.OnErase {
				op = "erase"
			}
			return map[string]any{
				"at_erase_count": m.AtEraseCount,
				"at_time":        durString(sim.Duration(m.AtTime)),
				"op":             op,
				"grown":          m.Grown,
			}, true
		},
	})
}

func registerOSPolicies() {
	Register(Component{
		Kind: KindOSPolicy, Name: "fifo",
		Doc:  "issue in submission order (default)",
		Make: func(p *Params) (any, error) { return &osched.FIFO{}, nil },
		Describe: func(v any) (map[string]any, bool) {
			_, ok := v.(*osched.FIFO)
			return map[string]any{}, ok
		},
	})
	Register(Component{
		Kind: KindOSPolicy, Name: "prio",
		Doc: "highest priority tag first, optionally reads before writes",
		Params: []Param{
			{Name: "reads_first", Type: TBool, Doc: "break priority ties in favor of reads"},
		},
		Make: func(p *Params) (any, error) {
			return &osched.Prio{ReadsFirst: p.Bool("reads_first", false)}, nil
		},
		Describe: func(v any) (map[string]any, bool) {
			pr, ok := v.(*osched.Prio)
			if !ok {
				return nil, false
			}
			return map[string]any{"reads_first": pr.ReadsFirst}, true
		},
	})
	Register(Component{
		Kind: KindOSPolicy, Name: "elevator",
		Doc:  "ascending-LPN sweeps (C-SCAN), the broken-HDD-contract contrast",
		Make: func(p *Params) (any, error) { return &osched.Elevator{}, nil },
		Describe: func(v any) (map[string]any, bool) {
			_, ok := v.(*osched.Elevator)
			return map[string]any{}, ok
		},
	})
	Register(Component{
		Kind: KindOSPolicy, Name: "cfq",
		Doc: "round-robin threads with a quantum",
		Params: []Param{
			{Name: "quantum", Type: TInt, Doc: "consecutive IOs per thread turn (0 = 4)"},
		},
		Make: func(p *Params) (any, error) {
			return &osched.CFQ{Quantum: p.Int("quantum", 0)}, nil
		},
		Describe: func(v any) (map[string]any, bool) {
			c, ok := v.(*osched.CFQ)
			if !ok {
				return nil, false
			}
			return map[string]any{"quantum": c.Quantum}, true
		},
	})
}
