package nvmwear

import (
	"math"
	"os"
	"runtime"
	"sync"
	"testing"

	"nvmwear/internal/fault"
	"nvmwear/internal/rng"
)

// This file holds the sharded-execution guarantees at the system level:
// PlanShards' generic rule must gate each scheme's catalogue entry
// correctly, -shards 1 must stay byte-identical to the serial goldens, a
// fixed shard count must be fully deterministic, and sharded runs of
// every scheme in the catalogue — exact and bank-local alike — must
// reproduce the serial lifetime within tolerance (see DESIGN.md Sec 10
// and Sec 15 for why exact equality is not the contract across shard
// counts).

// attackConfig is a shard-friendly BPA attack system: lines, spares,
// regions, and max-granularity units all divide evenly at 4 shards.
func attackConfig(scheme SchemeKind) SystemConfig {
	return SystemConfig{
		Scheme:     scheme,
		Lines:      1 << 12,
		SpareLines: 64,
		Endurance:  400,
		Regions:    1024,
		Period:     8,
		CMTEntries: 256,
		Seed:       7,
	}
}

func bpaSpec() WorkloadSpec { return WorkloadSpec{Kind: WorkloadBPA, Seed: 7} }

func TestPlanShards(t *testing.T) {
	cases := []struct {
		name      string
		cfg       SystemConfig
		w         WorkloadSpec
		requested int
		shards    int
		serial    bool // expect a fallback reason
	}{
		{"requested zero", attackConfig(SAWL), bpaSpec(), 0, 1, false},
		{"requested one", attackConfig(SAWL), bpaSpec(), 1, 1, false},
		{"capped at banks", attackConfig(Baseline), bpaSpec(), 64, MaxShards, false},
		{"raa is global", attackConfig(Baseline), WorkloadSpec{Kind: WorkloadRAA}, 4, 1, true},
		{"file trace is global", attackConfig(Baseline), WorkloadSpec{Kind: WorkloadFile, Path: "x"}, 4, 1, true},
		{"indivisible lines", SystemConfig{Scheme: Baseline, Lines: 100, SpareLines: 16, Endurance: 100}, bpaSpec(), 8, 1, true},
		{"too few spares", SystemConfig{Scheme: Baseline, Lines: 1 << 10, SpareLines: 2, Endurance: 100}, bpaSpec(), 4, 1, true},
		{"baseline shards", attackConfig(Baseline), bpaSpec(), 4, 4, false},
		{"rbsg shards", attackConfig(RBSG), bpaSpec(), 4, 4, false},
		{"rbsg indivisible regions", SystemConfig{Scheme: RBSG, Lines: 1 << 12, SpareLines: 64, Endurance: 100, Regions: 6}, bpaSpec(), 4, 1, true},
		{"startgap shards bank-local gaps", attackConfig(StartGap), bpaSpec(), 4, 4, false},
		{"segswap shards bank-local scans", attackConfig(SegmentSwap), bpaSpec(), 4, 4, false},
		{"tlsr shards bank-local outer levels", attackConfig(TLSR), bpaSpec(), 4, 4, false},
		{"pcms shards bank-local exchanges", attackConfig(PCMS), bpaSpec(), 4, 4, false},
		{"mwsr shards bank-local exchanges", attackConfig(MWSR), bpaSpec(), 4, 4, false},
		{"segswap one-segment bank", SystemConfig{Scheme: SegmentSwap, Lines: 1 << 10, SpareLines: 64, Endurance: 100, RegionLines: 128}, bpaSpec(), 8, 1, true},
		{"segswap misaligned segment", SystemConfig{Scheme: SegmentSwap, Lines: 1 << 12, SpareLines: 64, Endurance: 100, RegionLines: 384}, bpaSpec(), 4, 1, true},
		{"tlsr indivisible regions", SystemConfig{Scheme: TLSR, Lines: 1 << 12, SpareLines: 64, Endurance: 100, Regions: 6}, bpaSpec(), 4, 1, true},
		{"tlsr one-region bank", SystemConfig{Scheme: TLSR, Lines: 1 << 12, SpareLines: 64, Endurance: 100, Regions: 8}, bpaSpec(), 8, 1, true},
		{"pcms one-region bank", SystemConfig{Scheme: PCMS, Lines: 1 << 10, SpareLines: 64, Endurance: 100, RegionLines: 128}, bpaSpec(), 8, 1, true},
		{"sawl shards", attackConfig(SAWL), bpaSpec(), 4, 4, false},
		{"nwl shards", attackConfig(NWL), bpaSpec(), 4, 4, false},
		{"sawl misaligned max region", attackConfig(SAWL), bpaSpec(), 32, 1, true}, // 128-line shard < 256-line max region
		{"sawl cmt too small", SystemConfig{Scheme: SAWL, Lines: 1 << 12, SpareLines: 64, Endurance: 100, CMTEntries: 2}, bpaSpec(), 4, 1, true},
		{"softwear shards bank-local sampling", attackConfig(SoftWear), bpaSpec(), 4, 4, false},
		{"softwear one-page bank", SystemConfig{Scheme: SoftWear, Lines: 1 << 10, SpareLines: 64, Endurance: 100, RegionLines: 128}, bpaSpec(), 8, 1, true},
		{"softwear misaligned page", SystemConfig{Scheme: SoftWear, Lines: 1 << 12, SpareLines: 64, Endurance: 100, RegionLines: 384}, bpaSpec(), 4, 1, true},
		{"wolfram shards bank-local swaps", attackConfig(WoLFRaM), bpaSpec(), 4, 4, false},
		{"unknown scheme", SystemConfig{Scheme: "bogus", Lines: 1 << 12, SpareLines: 64, Endurance: 100}, bpaSpec(), 4, 1, true},
		{"tlsr zero-line region", SystemConfig{Scheme: TLSR, Lines: 1 << 10, SpareLines: 64, Endurance: 100, Regions: 1 << 11}, bpaSpec(), 4, 1, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plan := PlanShards(c.cfg, c.w, c.requested)
			if plan.Shards != c.shards {
				t.Fatalf("Shards = %d, want %d (reason %q)", plan.Shards, c.shards, plan.Reason)
			}
			if (plan.Reason != "") != c.serial {
				t.Fatalf("Reason = %q, want fallback reason: %v", plan.Reason, c.serial)
			}
		})
	}
}

// shardSystemConfig splits one device into per-bank views: lines divide,
// spare pools sum exactly with the remainder on the low banks, and the
// device and fault seeds become per-bank substreams, while per-line
// parameters stay the whole device's.
func TestShardSystemConfig(t *testing.T) {
	base := SystemConfig{
		Scheme:     Baseline,
		Lines:      1 << 12,
		SpareLines: 67, // not divisible by 4: remainder lands on low banks
		Endurance:  500,
		Variation:  0.1,
		Seed:       99,
		Fault:      fault.Config{StuckAtRate: 1e-4, Seed: 41},
	}
	var spares, prev uint64
	for b := uint64(0); b < 4; b++ {
		sub := shardSystemConfig(base, b, 4)
		if sub.Lines != base.Lines/4 {
			t.Fatalf("bank %d lines = %d", b, sub.Lines)
		}
		if b > 0 && sub.SpareLines > prev {
			t.Fatalf("bank %d spares %d exceed bank %d's %d; remainder must go low",
				b, sub.SpareLines, b-1, prev)
		}
		prev = sub.SpareLines
		spares += sub.SpareLines
		if sub.Seed != rng.SeedStream(base.Seed, b) {
			t.Fatalf("bank %d seed not a substream of the device seed", b)
		}
		if sub.Fault.Seed != rng.SeedStream(base.Fault.Seed, b) {
			t.Fatalf("bank %d fault seed not a substream", b)
		}
		if sub.Endurance != base.Endurance || sub.Variation != base.Variation {
			t.Fatalf("bank %d per-line parameters changed: %+v", b, sub)
		}
	}
	if spares != base.SpareLines {
		t.Fatalf("shard spare pools sum to %d, want %d", spares, base.SpareLines)
	}
	// A clean device must stay clean: splitting installs no fault stream.
	clean := SystemConfig{Scheme: Baseline, Lines: 64, Endurance: 10, Seed: 1}
	if sub := shardSystemConfig(clean, 0, 2); sub.Fault.Enabled() {
		t.Fatalf("fault stream appeared on a clean shard: %+v", sub.Fault)
	}
}

// -shards 1 (and 0, and any unset Scale.Shards) is the serial path, bit for
// bit: the pre-shard golden tables must keep reproducing.
func TestShardsOneByteIdenticalToSerialGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/fig16a_tiny.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 1} {
		sc := tinyScale()
		sc.Shards = shards
		got := renderFig(RunFig16(sc, true))
		if got != string(want) {
			t.Errorf("-shards %d deviates from the serial golden:\n--- got ---\n%s--- want ---\n%s",
				shards, got, want)
		}
	}
}

// The sharded goldens pin the -shards 4 tables byte for bit, the way the
// serial goldens pin -shards 1: a fixed shard count is a fully specified
// simulation, so any drift — in the exact decompositions or the bank-local
// ones (TLSR, PCM-S, MWSR appear in both figures) — is a regression or an
// intentional modeling change that must regenerate the golden (see
// EXPERIMENTS.md for the regeneration rule).
func TestShardsFourMatchesShardedGoldens(t *testing.T) {
	cases := []struct {
		golden string
		run    func(sc Scale) ([]Series, error)
	}{
		{"testdata/fig15_tiny_shards4.golden", RunFig15},
		{"testdata/fig16a_tiny_shards4.golden", func(sc Scale) ([]Series, error) { return RunFig16(sc, true) }},
	}
	for _, c := range cases {
		want, err := os.ReadFile(c.golden)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range []int{1, 8} {
			sc := withParallelism(tinyScale(), j)
			sc.Shards = 4
			if got := renderFig(c.run(sc)); got != string(want) {
				t.Errorf("-shards 4 -j %d deviates from %s:\n--- got ---\n%s--- want ---\n%s",
					j, c.golden, got, want)
			}
		}
	}
}

// A fixed shard count is as deterministic as the serial path: the table is
// byte-identical across worker counts and repeated runs.
func TestFixedShardsDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(j int) string {
		sc := tinyScale()
		sc.Shards = 4
		return renderFig(RunFig15(withParallelism(sc, j)))
	}
	first := run(1)
	if again := run(1); again != first {
		t.Fatalf("-shards 4 table differs between repeated -j1 runs:\n%s\nvs\n%s", first, again)
	}
	if parallel := run(8); parallel != first {
		t.Fatalf("-shards 4 table differs between -j1 and -j8:\n--- j1 ---\n%s--- j8 ---\n%s",
			first, parallel)
	}
}

// A sharded run of every scheme in the catalogue reproduces the serial
// lifetime within tolerance — the serial-vs-sharded equivalence matrix.
// Exact equality is not the contract even for exact-model schemes: shards
// draw from per-bank seed substreams and split the spare pool, so the
// sharded run is a statistically equivalent bank-interleaved device, not a
// replay. Bank-local schemes additionally confine their global state to
// each bank (DESIGN.md Sec 15), which shifts leveling quality a little
// more; both models must stay inside the same 30% band. Each scheme's
// sharded result is also replayed at a different GOMAXPROCS to pin
// scheduling-free determinism.
func TestShardedLifetimeWithinToleranceOfSerial(t *testing.T) {
	w := bpaSpec()
	for _, scheme := range Schemes() {
		t.Run(string(scheme), func(t *testing.T) {
			cfg := attackConfig(scheme)
			serial, plan, err := RunShardedLifetime(cfg, w, 0, ShardedRunOptions{Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			if plan.Shards != 1 {
				t.Fatalf("serial plan = %+v", plan)
			}
			sharded, plan, err := shardedAtProcs(4, cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Shards != 4 || plan.Reason != "" {
				t.Fatalf("sharded plan = %+v, want 4 shards with no fallback", plan)
			}
			if serial.Normalized <= 0 || sharded.Normalized <= 0 {
				t.Fatalf("degenerate lifetimes: serial %v sharded %v", serial.Normalized, sharded.Normalized)
			}
			if rel := math.Abs(sharded.Normalized-serial.Normalized) / serial.Normalized; rel > 0.30 {
				t.Fatalf("sharded lifetime %.4f deviates %.0f%% from serial %.4f (tolerance 30%%)",
					sharded.Normalized, 100*rel, serial.Normalized)
			}

			// The sharded result itself is deterministic: scheduling-free replay.
			again, _, err := shardedAtProcs(1, cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			if again.Served != sharded.Served || again.WearGini != sharded.WearGini ||
				again.Normalized != sharded.Normalized {
				t.Fatalf("sharded run not deterministic: %+v vs %+v", again, sharded)
			}
		})
	}
}

// shardedAtProcs runs (cfg, w) at 4 shards with GOMAXPROCS, the shard
// pool's worker count, set to procs, and restores it after.
func shardedAtProcs(procs int, cfg SystemConfig, w WorkloadSpec) (LifetimeResult, ShardPlan, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return RunShardedLifetime(cfg, w, 0, ShardedRunOptions{Shards: 4})
}

// A serial plan is the one-shard run RunLifetime makes: the same config
// and workload, seeds unchanged, so the CLI's serial path and the
// library's entry point give one Result (Elapsed aside), for a kernel
// scheme and for the tiered engine alike.
func TestSerialPlanIsRunLifetime(t *testing.T) {
	for _, scheme := range []SchemeKind{PCMS, SAWL} {
		t.Run(string(scheme), func(t *testing.T) {
			cfg := attackConfig(scheme)
			cfg.Variation = 0.1
			w := WorkloadSpec{Kind: WorkloadSPEC, Name: "gcc", Seed: 7}
			got, plan, err := RunShardedLifetime(cfg, w, 0, ShardedRunOptions{Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			if plan.Shards != 1 {
				t.Fatalf("plan = %+v, want serial", plan)
			}
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sys.RunLifetime(w, 0)
			if err != nil {
				t.Fatal(err)
			}
			got.Elapsed, want.Elapsed = 0, 0
			if got != want {
				t.Fatalf("serial plan's result differs from RunLifetime's:\n got: %+v\nwant: %+v", got, want)
			}
		})
	}
}

// A workload that cannot split (RAA's single global hot address) must run
// serial under -shards — and produce exactly the serial result, reason
// attached. With every scheme shardable on a divisible geometry,
// workload-level fallbacks are the only ones left.
func TestShardedFallbackIsExactlySerial(t *testing.T) {
	cfg := attackConfig(Baseline)
	w := WorkloadSpec{Kind: WorkloadRAA, Seed: 7}
	serial, _, err := RunShardedLifetime(cfg, w, 0, ShardedRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fallback, plan, err := RunShardedLifetime(cfg, w, 0, ShardedRunOptions{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Shards != 1 || plan.Reason == "" {
		t.Fatalf("plan = %+v, want serial fallback with reason", plan)
	}
	if fallback.Normalized != serial.Normalized || fallback.WearGini != serial.WearGini {
		t.Fatalf("fallback differs from serial: %+v vs %+v", fallback, serial)
	}
}

// Streaming must deliver every series, each exactly equal to its final
// returned form, as soon as it completes — the contract wlsim's partial-SVG
// rendering builds on. fig16 covers the Hmean point streamed with its
// series.
func TestSeriesDoneStreamsFinalSeries(t *testing.T) {
	cases := []struct {
		name, fig string
		run       func(Scale) ([]Series, error)
	}{
		{"fig3", "fig3", RunFig3},
		{"fig16a", "fig16a", func(sc Scale) ([]Series, error) { return RunFig16(sc, true) }},
		{"sweep", gridSweep(tinyScale(), PCMS, SweepRegionLines, SweepPeriods).fig, func(sc Scale) ([]Series, error) {
			return RunSweep(sc, PCMS, SweepRegionLines, SweepPeriods)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc := withParallelism(tinyScale(), 4)
			var mu sync.Mutex
			streamed := map[string]Series{}
			sc.SeriesDone = func(fig string, s Series) {
				mu.Lock()
				defer mu.Unlock()
				if fig != c.fig {
					t.Errorf("SeriesDone fig = %q", fig)
				}
				if _, dup := streamed[s.Label]; dup {
					t.Errorf("series %q streamed twice", s.Label)
				}
				streamed[s.Label] = s
			}
			final := must(c.run(sc))
			if len(streamed) != len(final) {
				t.Fatalf("%d series streamed, %d returned", len(streamed), len(final))
			}
			for _, f := range final {
				s, ok := streamed[f.Label]
				if !ok {
					t.Fatalf("series %q never streamed", f.Label)
				}
				if len(s.X) != len(f.X) {
					t.Fatalf("series %q streamed with %d points, final has %d", f.Label, len(s.X), len(f.X))
				}
				for i := range f.X {
					if s.X[i] != f.X[i] || s.Y[i] != f.Y[i] {
						t.Fatalf("series %q point %d: streamed (%v,%v) != final (%v,%v)",
							f.Label, i, s.X[i], s.Y[i], f.X[i], f.Y[i])
					}
				}
			}
		})
	}
}

// CacheFreshness probes real store entries: all-stale before a run, fully
// cached after; shard-layout key salting follows the sweep's own sharded
// flag, which the plan records. (TestExperimentPlanMatchesDispatch pins the
// planner's job lists against every runner's actual dispatch.)
func TestCacheFreshnessTracksStore(t *testing.T) {
	sc := tinyScale()
	st := openCache(t, t.TempDir())
	sc.Cache = st

	before := sc.CacheFreshness("fig12")
	if len(before) != 1 || before[0].Cached != 0 || before[0].Stale() != before[0].Jobs {
		t.Fatalf("cold-cache freshness = %+v, want all stale", before)
	}
	if _, err := RunFig12(sc); err != nil {
		t.Fatal(err)
	}
	after := sc.CacheFreshness("fig12")
	if len(after) != 1 || after[0].Stale() != 0 || after[0].Cached != after[0].Jobs {
		t.Fatalf("warm-cache freshness = %+v, want fully cached", after)
	}

	// fig12's lifetime runs never go through the sharder: its keys — and so
	// its freshness — are layout-independent, and a -shards run correctly
	// reuses the serial entries.
	sharded := sc
	sharded.Shards = 4
	if f := sharded.CacheFreshness("fig12"); f[0].Cached != f[0].Jobs {
		t.Fatalf("unsharded experiment lost freshness under -shards: %+v", f)
	}

	// A sharded experiment's keys are salted with the layout: entries under
	// the serial keys are invisible to a sharded probe.
	fig3, ok := LookupExperiment("fig3")
	if !ok {
		t.Fatal("fig3 not registered")
	}
	for _, j := range fig3.Plan(sc) {
		if !j.Sharded {
			t.Fatalf("fig3 job %+v not planned as sharded", j)
		}
		if err := st.Put(sc.cacheKey(j.Fig, true, j.Index), []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if f := sc.CacheFreshness("fig3"); len(f) != 1 || f[0].Stale() != 0 {
		t.Fatalf("planted serial entries not fresh: %+v", f)
	}
	if f := sharded.CacheFreshness("fig3"); f[0].Cached != 0 {
		t.Fatalf("sharded layout reports %d serial entries as fresh", f[0].Cached)
	}

	// No cache open, no plan, or no such experiment: nil, not a panic.
	if f := tinyScale().CacheFreshness("fig12"); f != nil {
		t.Fatalf("cacheless freshness = %+v, want nil", f)
	}
	if f := sc.CacheFreshness("table1"); f != nil {
		t.Fatalf("planless freshness = %+v, want nil", f)
	}
	if f := sc.CacheFreshness("no-such-experiment"); f != nil {
		t.Fatalf("unknown-experiment freshness = %+v, want nil", f)
	}
}
