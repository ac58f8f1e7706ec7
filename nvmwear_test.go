package nvmwear

import (
	"os"
	"strings"
	"testing"

	"nvmwear/internal/sim"
	"nvmwear/internal/trace"
)

func TestNewSystemAllSchemes(t *testing.T) {
	for _, kind := range Schemes() {
		sys, err := NewSystem(SystemConfig{
			Scheme: kind, Lines: 1 << 12, Endurance: 1 << 30, SpareLines: 1,
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if sys.SchemeName() == "" || !sys.Alive() || sys.Lines() != 1<<12 {
			t.Fatalf("%s: bad system state", kind)
		}
		// Smoke: access and translation stay in the device.
		for i := uint64(0); i < 1000; i++ {
			sys.Write(i % (1 << 12))
			sys.Read(i * 7 % (1 << 12))
		}
		st := sys.Stats()
		if st.DataWrites != 1000 || st.DataReads != 1000 {
			t.Fatalf("%s: stats %+v", kind, st)
		}
	}
}

func TestNewSystemUnknownScheme(t *testing.T) {
	if _, err := NewSystem(SystemConfig{Scheme: "bogus"}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestSystemDefaults(t *testing.T) {
	sys, err := NewSystem(SystemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sys.Config()
	if cfg.Scheme != SAWL || cfg.Lines != 1<<16 || cfg.Endurance != 10000 {
		t.Fatalf("defaults: %+v", cfg)
	}
	if cfg.CMTEntries != 32768 {
		t.Fatalf("CMT default: %d", cfg.CMTEntries)
	}
}

func TestWorkloadSpecBuild(t *testing.T) {
	cases := []WorkloadSpec{
		{Kind: WorkloadRAA, Target: 5},
		{Kind: WorkloadBPA, Seed: 1},
		{Kind: WorkloadUniform, WriteRatio: 0.5},
		{Kind: WorkloadSequential},
		{Kind: WorkloadSPEC, Name: "gcc"},
	}
	for _, w := range cases {
		stream, name, err := w.Build(1 << 12)
		if err != nil {
			t.Fatalf("%s: %v", w.Kind, err)
		}
		if name == "" {
			t.Fatalf("%s: empty name", w.Kind)
		}
		reqs := trace.NewCursor(stream, 100)
		for r, ok := reqs.Next(); ok; r, ok = reqs.Next() {
			if r.Addr >= 1<<12 {
				t.Fatalf("%s: address out of range", w.Kind)
			}
		}
	}
	if _, _, err := (WorkloadSpec{Kind: WorkloadSPEC, Name: "nope"}).Build(1 << 12); err == nil {
		t.Fatal("unknown SPEC profile accepted")
	}
	if _, _, err := (WorkloadSpec{Kind: "bogus"}).Build(1 << 12); err == nil {
		t.Fatal("unknown workload kind accepted")
	}
}

// TestWorkloadSpecBuildRejectsSmallSpaces checks that Build returns an
// error, not a panic, for an address space its generator cannot use.
func TestWorkloadSpecBuildRejectsSmallSpaces(t *testing.T) {
	cases := []struct {
		name  string
		w     WorkloadSpec
		lines uint64
	}{
		{"spec below one page", WorkloadSpec{Kind: WorkloadSPEC, Name: "gcc"}, 32},
		{"rate-mode partition below one page", WorkloadSpec{Kind: WorkloadSPEC, Name: "gcc", RateCopies: 8}, 256},
		{"raa over zero lines", WorkloadSpec{Kind: WorkloadRAA, Target: 5}, 0},
		{"bpa over zero lines", WorkloadSpec{Kind: WorkloadBPA}, 0},
		{"uniform over zero lines", WorkloadSpec{Kind: WorkloadUniform}, 0},
		{"sequential over zero lines", WorkloadSpec{Kind: WorkloadSequential}, 0},
		{"spec over zero lines", WorkloadSpec{Kind: WorkloadSPEC, Name: "gcc"}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Build panicked: %v", r)
				}
			}()
			if _, _, err := c.w.Build(c.lines); err == nil {
				t.Fatal("Build returned no error")
			}
		})
	}
}

// TestNewSystemRejectsBadTieredGeometry checks that NewSystem returns an
// error naming the field, not a panic, for a configuration a scheme cannot
// build (the tiered engine's rules and each other package's Validate), and
// that a negative CMT cannot be split across shards.
func TestNewSystemRejectsBadTieredGeometry(t *testing.T) {
	cases := []struct {
		name  string
		cfg   SystemConfig
		field string
	}{
		{"negative CMT", SystemConfig{Scheme: SAWL, CMTEntries: -5}, "CMTEntries"},
		{"nwl negative CMT", SystemConfig{Scheme: NWL, CMTEntries: -1}, "CMTEntries"},
		{"granularity not a power of two", SystemConfig{Scheme: SAWL, InitGran: 3}, "InitGran"},
		{"lines not a power of two", SystemConfig{Scheme: SAWL, Lines: 1000}, "Lines"},
		{"max granularity below initial", SystemConfig{Scheme: SAWL, MaxGranLines: 2}, "MaxGranLines"},
		{"granularity above memory", SystemConfig{Scheme: SAWL, InitGran: 2048, Lines: 1024}, "InitGran"},
		{"rbsg regions not dividing lines", SystemConfig{Scheme: RBSG, Regions: 3}, "Regions"},
		{"tlsr regions not a power of two", SystemConfig{Scheme: TLSR, Regions: 3}, "Regions"},
		{"pcms region not a power of two", SystemConfig{Scheme: PCMS, RegionLines: 3}, "RegionLines"},
		{"mwsr region not a power of two", SystemConfig{Scheme: MWSR, RegionLines: 3}, "RegionLines"},
		{"segswap segment not dividing lines", SystemConfig{Scheme: SegmentSwap, RegionLines: 3}, "SegmentLines"},
		{"softwear page not a power of two", SystemConfig{Scheme: SoftWear, RegionLines: 3}, "PageLines"},
		{"wolfram lines not a power of two", SystemConfig{Scheme: WoLFRaM, Lines: 1000}, "Lines"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("NewSystem panicked: %v", r)
				}
			}()
			_, err := NewSystem(c.cfg)
			if err == nil || !strings.Contains(err.Error(), c.field) {
				t.Fatalf("NewSystem error %v, want one naming %s", err, c.field)
			}
		})
	}
	cfg := SystemConfig{Scheme: SAWL, Lines: 1 << 15, CMTEntries: -5}
	if plan := PlanShards(cfg, WorkloadSpec{Kind: WorkloadUniform}, 4); plan.Shards != 1 {
		t.Fatalf("PlanShards split %d CMT entries %d ways", cfg.CMTEntries, plan.Shards)
	}
}

func TestRunLifetimeSmoke(t *testing.T) {
	sys, err := NewSystem(SystemConfig{
		Scheme: PCMS, Lines: 1 << 10, SpareLines: 32, Endurance: 200, RegionLines: 4, Period: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunLifetime(WorkloadSpec{Kind: WorkloadBPA, Seed: 3, Repeats: 16}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Normalized <= 0 || res.Normalized > 1 {
		t.Fatalf("normalized %v", res.Normalized)
	}
	if res.TimedOut {
		t.Fatal("BPA lifetime run timed out")
	}
}

func TestRunTimingSmoke(t *testing.T) {
	sys, err := NewSystem(SystemConfig{
		Scheme: NWL, Lines: 1 << 14, SpareLines: 1, Endurance: 1 << 30, InitGran: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunTiming(WorkloadSpec{Kind: WorkloadSPEC, Name: "bzip2", Seed: 1}, 100000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 {
		t.Fatalf("IPC %v", res.IPC)
	}
}

func TestSpecBenchmarksList(t *testing.T) {
	if len(SpecBenchmarks()) != 14 {
		t.Fatalf("%d benchmarks", len(SpecBenchmarks()))
	}
}

func TestScalePresets(t *testing.T) {
	for _, name := range []string{"small", "medium", "large"} {
		sc, err := ScaleByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if sc.AttackLines == 0 || sc.SpecLines == 0 || sc.Requests == 0 || sc.CMTEntries == 0 {
			t.Fatalf("%s: incomplete preset %+v", name, sc)
		}
		if sc.lowAttackEndurance() >= sc.AttackEndurance {
			t.Fatalf("%s: low endurance not lower", name)
		}
		if sc.attackSpares() == 0 || sc.specSpares() == 0 {
			t.Fatalf("%s: zero spares", name)
		}
	}
	if _, err := ScaleByName("bogus"); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

func TestSeriesTableRender(t *testing.T) {
	a := Series{Label: "A"}
	a.Append(1, 10)
	a.Append(2, 20)
	b := Series{Label: "B"}
	b.Append(2, 99)
	tab := SeriesTable("demo", "x", []Series{a, b}, "%.0f")
	out := tab.Render()
	for _, want := range []string{"demo", "A", "B", "10", "99"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
}

func TestTrimFloat(t *testing.T) {
	if trimFloat(4) != "4" || trimFloat(2.5) != "2.5" {
		t.Fatal("trimFloat")
	}
}

func TestRunOverheadMatchesPaper(t *testing.T) {
	// Sec 4.5: 64 GB, 64M regions => IMT 224 MB (0.3% of capacity), GTD
	// ~80 KB at translation-line wear-leveling granularity 32.
	r := RunOverhead(64<<30, 64<<20, 32)
	imtMB := float64(r.IMTBytes) / (1 << 20)
	if imtMB < 200 || imtMB > 250 {
		t.Fatalf("IMT = %.0f MB, paper says 224", imtMB)
	}
	if r.IMTFraction < 0.002 || r.IMTFraction > 0.005 {
		t.Fatalf("IMT fraction %.4f, paper says 0.003", r.IMTFraction)
	}
	gtdKB := float64(r.GTDBytes) / (1 << 10)
	if gtdKB < 40 || gtdKB > 160 {
		t.Fatalf("GTD = %.0f KB, paper says ~80", gtdKB)
	}
	// The avoided cost: a fully on-chip PCM-S table at this region count
	// is hundreds of MB.
	if r.PCMSOnChipBytes < 100<<20 {
		t.Fatalf("PCM-S on-chip %d too small", r.PCMSOnChipBytes)
	}
	if r.MWSROnChipBytes <= r.PCMSOnChipBytes {
		t.Fatal("MWSR entries must be bigger than PCM-S")
	}
	if out := r.Table().Render(); !strings.Contains(out, "GTD") || !strings.Contains(out, "IMT") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestRunTable1(t *testing.T) {
	tab := RunTable1()
	if len(tab.Rows) < 6 {
		t.Fatalf("table 1 rows: %d", len(tab.Rows))
	}
	out := tab.Render()
	for _, want := range []string{"8 cores", "512 KB", "350 ns", "55 ns"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table 1 missing %q", want)
		}
	}
}

func TestRegionsForBudgetMonotone(t *testing.T) {
	prev := uint64(0)
	for _, b := range []uint64{1 << 10, 1 << 12, 1 << 14} {
		r := regionsForBudget(PCMS, b, 1<<20)
		if r < prev {
			t.Fatalf("regions not monotone in budget: %d after %d", r, prev)
		}
		prev = r
	}
	// MWSR must afford fewer regions at equal budget.
	if regionsForBudget(MWSR, 1<<12, 1<<20) > regionsForBudget(PCMS, 1<<12, 1<<20) {
		t.Fatal("MWSR regions exceed PCM-S at equal budget")
	}
}

// tinyScale keeps figure-runner integration tests fast. It is the exported
// ScaleTiny preset (`wlsim -scale tiny`), whose parameters the testdata/
// goldens pin.
func tinyScale() Scale { return ScaleTiny }

func TestRunFig3Shape(t *testing.T) {
	series := must(RunFig3(tinyScale()))
	if len(series) != 8 {
		t.Fatalf("%d series", len(series))
	}
	// Lifetime must rise with the number of regions for each series.
	for _, s := range series {
		first, last := s.Y[0], s.Y[len(s.Y)-1]
		if last < first {
			t.Errorf("%s: lifetime fell from %.1f to %.1f with more regions", s.Label, first, last)
		}
	}
}

func TestRunFig4Shape(t *testing.T) {
	series := must(RunFig4(tinyScale()))
	if len(series) != 16 {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		if s.Y[len(s.Y)-1] < s.Y[0] {
			t.Errorf("%s: hybrid lifetime not rising with regions", s.Label)
		}
	}
}

func TestRunFig5Shape(t *testing.T) {
	series := must(RunFig5(tinyScale()))
	if len(series) != 4 {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		if s.Y[len(s.Y)-1] < s.Y[0] {
			t.Errorf("%s: lifetime not improving with cache budget", s.Label)
		}
	}
}

func TestRunFig15SAWLWins(t *testing.T) {
	series := must(RunFig15(tinyScale()))
	if len(series) != 6 {
		t.Fatalf("%d series", len(series))
	}
	// At each endurance level, SAWL's best point must beat PCM-S's and
	// MWSR's best points (the paper's headline claim).
	best := map[string]float64{}
	for _, s := range series {
		for _, y := range s.Y {
			if y > best[s.Label] {
				best[s.Label] = y
			}
		}
	}
	for _, pair := range [][2]string{
		{"sawl Wmax=800", "pcms Wmax=800"},
		{"sawl Wmax=800", "mwsr Wmax=800"},
		{"sawl Wmax=160", "pcms Wmax=160"},
		{"sawl Wmax=160", "mwsr Wmax=160"},
	} {
		if best[pair[0]] <= best[pair[1]] {
			t.Errorf("%s (%.1f) does not beat %s (%.1f)",
				pair[0], best[pair[0]], pair[1], best[pair[1]])
		}
	}
}

// TestAblationSplitTrigger is the split-trigger ablation (DESIGN.md §4):
// the paper's trigger splits only when the hit rate is high and the hits
// concentrate in one LRU half. With SubQueueThreshold 1e-6 the imbalance
// condition always holds, so SAWL splits whenever the hit rate is high:
// 66998 splits instead of 5953 on a scattered phase followed by a hot
// one, about 11× the table churn.
func TestAblationSplitTrigger(t *testing.T) {
	run := func(subQueue float64) uint64 {
		sys, err := NewSystem(SystemConfig{
			Scheme: SAWL, Lines: 1 << 18, SpareLines: 1, Endurance: 1 << 30,
			Period: 64, CMTEntries: 1024,
			ObservationWindow: 1 << 12, SettlingWindow: 1 << 12,
			SubQueueThreshold: subQueue, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Hot phase after a scattered phase: forces merge then split
		// pressure.
		stream, _, err := WorkloadSpec{Kind: WorkloadUniform, WriteRatio: 1, Seed: 3}.Build(1 << 18)
		if err != nil {
			t.Fatal(err)
		}
		reqs := trace.NewCursor(stream, 400000)
		for r, ok := reqs.Next(); ok; r, ok = reqs.Next() {
			sys.Write(r.Addr)
		}
		for i := uint64(0); i < 400000; i++ {
			sys.Write(i % 256)
		}
		return sys.Splits()
	}
	if paper, hitOnly := run(0.99), run(1e-6); paper != 5953 || hitOnly != 66998 {
		t.Fatalf("splits: paper trigger %d, hit-rate-only %d; want 5953 and 66998", paper, hitOnly)
	}
}

// TestAblationXORSplitCost is the XOR-mapping ablation (DESIGN.md §4,
// Fig 9): merging two buddy regions moves data (8 line writes, 2Q at
// Q = 4), while splitting the merged region back costs no line writes at
// all, because the XOR intra-region mapping keeps every line where it is.
func TestAblationXORSplitCost(t *testing.T) {
	sys, err := NewSystem(SystemConfig{
		Scheme: SAWL, Lines: 1 << 12, SpareLines: 1, Endurance: 1 << 30,
		Period: 1 << 20, CMTEntries: 256, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	core := sys.coreScheme()
	// Randomize region placement first: with the initial identity mapping
	// a buddy merge happens to need no movement.
	core.ForceExchange(0)
	core.ForceExchange(4)
	before := movedLines(sys)
	core.ForceMerge(0)
	mid := movedLines(sys)
	core.ForceSplit(0)
	merge, split := mid-before, movedLines(sys)-mid
	t.Logf("merge %d line writes, split %d", merge, split)
	if merge == 0 || split != 0 {
		t.Fatalf("merge cost %d line writes, split %d; want > 0 and 0", merge, split)
	}
}

// TestAblationLazyMerge is the lazy-merging ablation (DESIGN.md §4, Sec 3.2
// item 3): merging every region at once, stop-the-world, writes more lines
// in one burst (1128) than SAWL's lazy merging, which merges only cached
// regions on access, ever writes for a single access (384 over 50,000
// writes and 1011 merges).
func TestAblationLazyMerge(t *testing.T) {
	// Stop-the-world: one burst over a randomized placement (fresh
	// identity layouts make buddy merges accidentally free).
	stw, err := NewSystem(SystemConfig{
		Scheme: SAWL, Lines: 1 << 12, SpareLines: 1, Endurance: 1 << 30,
		Period: 1 << 20, CMTEntries: 256, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := uint64(0); r < 1<<10; r += 8 {
		stw.coreScheme().ForceExchange(r)
	}
	burst := stw.coreScheme().MergeAllOnce()

	// Lazy: a low-locality workload drives SAWL into merge mode; record
	// the largest line-write cost of one access.
	lazy, err := NewSystem(SystemConfig{
		Scheme: SAWL, Lines: 1 << 12, SpareLines: 1, Endurance: 1 << 30,
		Period: 8, CMTEntries: 64, Seed: 9,
		ObservationWindow: 1 << 10, SettlingWindow: 1 << 10, CheckEvery: 1 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream, _, err := WorkloadSpec{Kind: WorkloadUniform, WriteRatio: 1, Seed: 9}.Build(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	var lazyMax uint64
	prev := movedLines(lazy)
	reqs := trace.NewCursor(stream, 50000)
	for r, ok := reqs.Next(); ok; r, ok = reqs.Next() {
		lazy.Write(r.Addr)
		cur := movedLines(lazy)
		lazyMax = max(lazyMax, cur-prev)
		prev = cur
	}
	t.Logf("stop-the-world burst %d line writes, lazy per-access max %d, merges %d", burst, lazyMax, lazy.Merges())
	if lazy.Merges() == 0 || burst <= lazyMax {
		t.Fatalf("stop-the-world burst %d line writes, lazy per-access max %d over %d merges; want a burst above the max",
			burst, lazyMax, lazy.Merges())
	}
}

// movedLines is the line writes the scheme's data movement (exchanges and
// merges) has cost so far.
func movedLines(sys *System) uint64 {
	st := sys.lv.Stats()
	return st.SwapWrites + st.MergeWrites
}

// TestAblationNoAdapt is the adaptive-granularity ablation (DESIGN.md §4):
// on gcc, SAWL's CMT hit rate lands between the fixed fine (NWL-4) and
// coarse (NWL-64) granularities, recovering most of the coarse hit rate
// while it keeps fine-grained wear leveling where locality is poor. It runs
// at ScaleSmall (65.03 / 89.84 / 93.33 %); at ScaleTiny's 2^17 requests
// SAWL's hit rate overtakes NWL-64's.
func TestAblationNoAdapt(t *testing.T) {
	sc := ScaleSmall
	nwl4 := must(runNWLHitRate(sc, "gcc", 4))
	nwl64 := must(runNWLHitRate(sc, "gcc", 64))
	_, _, sawl, err := runTrace(sc, "gcc", sc.Requests/128, sc.Requests/128)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("gcc hit rate: NWL-4 %.2f%%, SAWL %.2f%%, NWL-64 %.2f%%", nwl4, sawl, nwl64)
	if !(nwl4 < sawl && sawl < nwl64) {
		t.Fatalf("gcc hit rate: NWL-4 %.2f%%, SAWL %.2f%%, NWL-64 %.2f%%; want them in that order",
			nwl4, sawl, nwl64)
	}
}

// TestRAAVulnerability pins the Sec 2.2 RAA claim EXPERIMENTS.md quotes
// (Baseline 3.1 %, RBSG 3.1 %, PCM-S 61.1 %, SAWL 55.7 % of ideal) at its
// 4096-line geometry: a repeated-address attack wears out schemes that
// remap only within a region, while whole-memory exchanges disperse it, so
// PCM-S and SAWL each outlive Baseline and RBSG at least tenfold. -v logs
// every scheme's lifetime, Segment Swapping's and TLSR's included.
func TestRAAVulnerability(t *testing.T) {
	life := map[SchemeKind]float64{}
	for _, kind := range []SchemeKind{Baseline, SegmentSwap, RBSG, TLSR, PCMS, SAWL} {
		sys, err := NewSystem(SystemConfig{
			Scheme: kind, Lines: 1 << 12, SpareLines: 1 << 7,
			Endurance: 2000, Period: 8,
			RegionLines: 4, Regions: 16, CMTEntries: 1024, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.RunLifetime(WorkloadSpec{Kind: WorkloadRAA, Target: 99}, 0)
		if err != nil {
			t.Fatal(err)
		}
		life[kind] = res.Normalized
		t.Logf("%-8s %5.1f%% of ideal", kind, 100*res.Normalized)
	}
	for _, strong := range []SchemeKind{PCMS, SAWL} {
		for _, weak := range []SchemeKind{Baseline, RBSG} {
			if life[strong] < 10*life[weak] {
				t.Errorf("RAA lifetime: %s %.1f%% is under 10x %s's %.1f%%",
					strong, 100*life[strong], weak, 100*life[weak])
			}
		}
	}
}

func TestRunFig12Produces(t *testing.T) {
	series := must(RunFig12(tinyScale()))
	if len(series) != 4 {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		if len(s.Y) == 0 {
			t.Fatalf("%s: empty trace", s.Label)
		}
		for _, y := range s.Y {
			if y < 0 || y > 100 {
				t.Fatalf("%s: hit rate %v", s.Label, y)
			}
		}
	}
}

func TestRunFig13Produces(t *testing.T) {
	series, avg, err := RunFig13(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 || len(avg) != 4 {
		t.Fatalf("series %d avg %d", len(series), len(avg))
	}
	for _, s := range series {
		for _, y := range s.Y {
			if y < 1 {
				t.Fatalf("%s: region size %v below one line", s.Label, y)
			}
		}
	}
}

func TestRunFig14Ordering(t *testing.T) {
	res := must(RunFig14(tinyScale()))
	if len(res) != 3 {
		t.Fatalf("%d panels", len(res))
	}
	for _, r := range res {
		// The paper's Fig 14 invariant: NWL-4 <= SAWL <= NWL-64 hit rates
		// (allowing slack for the scaled runs).
		if r.AvgNWL64 < r.AvgNWL4 {
			t.Errorf("%s: NWL-64 (%.1f) below NWL-4 (%.1f)", r.Bench, r.AvgNWL64, r.AvgNWL4)
		}
		if r.AvgSAWL < r.AvgNWL4-5 {
			t.Errorf("%s: SAWL (%.1f) below NWL-4 (%.1f)", r.Bench, r.AvgSAWL, r.AvgNWL4)
		}
	}
}

func TestWearReportAndProjection(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Scheme: Baseline, Lines: 1 << 10, SpareLines: 1, Endurance: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		sys.Write(uint64(i) % 256)
	}
	r := sys.WearReport()
	if r.Lines != 1<<10 || r.Max == 0 {
		t.Fatalf("report: %+v", r)
	}
	p := ProjectLifetime(64<<30, 1e5, 1<<30, 0.85)
	months := p.Projected().Hours() / 720
	if months < 1.8 || months > 2.6 {
		t.Fatalf("projected %.2f months for 85%% of 2.5", months)
	}
}

func TestWorkloadFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/t.trace"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriter(f)
	for i := uint64(0); i < 100; i++ {
		w.Write(trace.Request{Op: trace.Write, Addr: i * 3})
	}
	w.Flush()
	f.Close()

	stream, name, err := WorkloadSpec{Kind: WorkloadFile, Path: path}.Build(64)
	if err != nil {
		t.Fatal(err)
	}
	if name == "" {
		t.Fatal("empty name")
	}
	reqs := trace.NewCursor(stream, 300) // loops past the 100-entry trace
	for r, ok := reqs.Next(); ok; r, ok = reqs.Next() {
		if r.Addr >= 64 {
			t.Fatalf("address %d not folded", r.Addr)
		}
	}
	if _, _, err := (WorkloadSpec{Kind: WorkloadFile, Path: dir + "/missing"}).Build(64); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRunTimingEventCrossCheck(t *testing.T) {
	mk := func() *System {
		sys, err := NewSystem(SystemConfig{
			Scheme: NWL, Lines: 1 << 14, SpareLines: 1, Endurance: 1 << 30,
			InitGran: 4, CMTEntries: 512, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	w := WorkloadSpec{Kind: WorkloadSPEC, Name: "milc", Seed: 5}
	analytic, err := mk().RunTiming(w, 100000, 0)
	if err != nil {
		t.Fatal(err)
	}
	sys := mk()
	stream, _, err := w.Build(sys.Lines())
	if err != nil {
		t.Fatal(err)
	}
	event := sim.RunEvent(sys.lv, stream, sim.Config{Requests: 100000, InstrPerMemReq: instrFor("milc")})
	if analytic.IPC <= 0 || event.IPC <= 0 {
		t.Fatalf("IPC: analytic %v event %v", analytic.IPC, event.IPC)
	}
	if ratio := analytic.IPC / event.IPC; ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("models diverge: analytic %.3f vs event %.3f", analytic.IPC, event.IPC)
	}
}
