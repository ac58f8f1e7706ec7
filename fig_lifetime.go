package nvmwear

import (
	"cmp"
	"fmt"

	"nvmwear/internal/analysis"
	"nvmwear/internal/metrics"
	"nvmwear/internal/wl/mwsr"
	"nvmwear/internal/wl/pcms"
	"nvmwear/internal/workload"
)

// This file implements the lifetime experiments: Figs 3, 4, 5, 15 and 16,
// the generic `sweep`, and the Sec 2.2 `attack` verdicts. Every figure
// runner returns Series of normalized lifetime (percent of ideal).
//
// Each figure is a sweep of independent lifetime measurements (one fresh
// device + leveler per point). A figure only declares its points as a
// lifetimeSweep; the sweep plans them for the registry, fans them out on
// the scale's worker pool (runJobs), streams and assembles the series.
// Points land in their series in declaration order, which keeps the emitted
// tables byte-identical whatever Scale.Parallelism is. Each measurement
// goes through the sweep's sharder, so under Scale.Shards a single run
// further decomposes across the bank geometry where the scheme allows it.

// lifetimePoint is one measurement of a lifetime sweep: its series, its X
// value, and the system and workload it runs to device death.
type lifetimePoint struct {
	series int
	x      float64
	cfg    SystemConfig
	w      WorkloadSpec
}

// lifetimeSweep is a lifetime figure declared as data: ordered points
// grouped into labeled series. Point i is job i under the cache identity
// fig, so declaration order fixes every job's seed and cache key.
type lifetimeSweep struct {
	fig    string
	labels []string
	points []lifetimePoint
	// cost is an optional longest-job-first hint per point.
	cost func(i int) float64
	// hmean appends each series' harmonic mean at x = its point count (the
	// paper's "Hmean" bar); a series missing any point stays empty.
	hmean bool
}

// series starts the next labeled curve; later points join it.
func (s *lifetimeSweep) series(label string) { s.labels = append(s.labels, label) }

// point declares one measurement of the current series at x.
func (s *lifetimeSweep) point(x float64, cfg SystemConfig, w WorkloadSpec) {
	s.points = append(s.points, lifetimePoint{len(s.labels) - 1, x, cfg, w})
}

// plan is the sweep's job list (Experiment.Plan).
func (s *lifetimeSweep) plan() []JobSpec { return planJobs(s.fig, len(s.points)) }

// run measures every point, y = 100·Normalized. Both the system and the
// workload take the job's derived seed (the seeding convention of runJobs).
// Each series streams to Scale.SeriesDone as soon as its last point lands;
// an interrupted sweep returns its completed prefix of points together with
// an error wrapping ErrInterrupted.
func (s *lifetimeSweep) run(sc Scale) ([]Series, error) {
	o := jobOpts[float64]{cost: s.cost}
	if sc.SeriesDone != nil {
		ys := make([]float64, len(s.points))
		left := make([]int, len(s.labels))
		for _, p := range s.points {
			left[p.series]++
		}
		o.onJob = func(i int, y float64) {
			ys[i] = y
			si := s.points[i].series
			if left[si]--; left[si] == 0 {
				sc.SeriesDone(s.fig, s.curve(si, ys))
			}
		}
	}
	sh := newSharder(sc)
	ys, err := runJobs(sc, s.fig, true, len(s.points), o, func(i int, seed uint64) (float64, error) {
		p := s.points[i]
		p.cfg.Seed, p.w.Seed = seed, seed
		res, err := sh.run(p.cfg, p.w, 0)
		if err != nil {
			return 0, err
		}
		return 100 * res.Normalized, nil
	})
	out := make([]Series, len(s.labels))
	for si := range out {
		out[si] = s.curve(si, ys)
	}
	return out, err
}

// curve assembles series si from per-point values ys, which may cover only
// a completed prefix of the points.
func (s *lifetimeSweep) curve(si int, ys []float64) Series {
	c := Series{Label: s.labels[si]}
	n := 0
	for i, p := range s.points {
		if p.series != si {
			continue
		}
		n++
		if i < len(ys) {
			c.Append(p.x, ys[i])
		}
	}
	if s.hmean {
		if len(c.Y) < n {
			return Series{Label: c.Label}
		}
		c.Append(float64(n), metrics.HarmonicMean(c.Y))
	}
	return c
}

// bpaAttack is the BPA workload of the attack figures. The attacker writes
// each randomly selected address "precisely" (Sec 2.2): `repeats` is tuned
// to the scheme's remap trigger, so every burst deposits one full swap
// period of wear on a single physical line before the scheme can move it —
// the worst case the paper evaluates.
func bpaAttack(repeats uint64) WorkloadSpec {
	return WorkloadSpec{Kind: WorkloadBPA, Repeats: max(repeats, 1)}
}

// regionSweep returns the paper-shaped region-count sweep for a device:
// seven points doubling from lines>>10 to lines>>4 (the paper sweeps
// 16K..2M regions — region sizes 16K down to 128 lines — on a 256M-line
// device; the scaled sweep covers region sizes 1024 down to 16 lines so
// the rising/falling shape appears within the scaled endurance).
func regionSweep(lines uint64) []uint64 {
	var out []uint64
	for shift := uint(10); ; shift-- {
		r := lines >> shift
		if r >= 2 {
			out = append(out, r)
		}
		if shift == 4 {
			break
		}
	}
	return out
}

// RunFig3 reproduces Fig 3: normalized lifetime of TLSR under BPA as a
// function of the number of regions, for inner swapping periods 8-64 and
// two endurance levels (outer period fixed at 32, as in Sec 2.2).
func RunFig3(sc Scale) ([]Series, error) { return fig3Sweep(sc).run(sc) }

// fig3Sweep declares RunFig3's points.
func fig3Sweep(sc Scale) *lifetimeSweep {
	s := &lifetimeSweep{fig: "fig3"}
	for _, endurance := range sc.attackEndurances() {
		for _, period := range []uint64{8, 16, 32, 64} {
			s.series(fmt.Sprintf("Wmax=%d ψ=%d", endurance, period))
			for _, regions := range regionSweep(sc.AttackLines) {
				s.point(float64(regions), SystemConfig{
					Scheme: TLSR, Lines: sc.AttackLines, SpareLines: sc.attackSpares(),
					Endurance: endurance, Regions: regions,
					Period: period, OuterPeriod: 32,
				}, bpaAttack(period*(sc.AttackLines/regions)/2))
			}
		}
	}
	return s
}

// RunFig4 reproduces Fig 4: normalized lifetime of the hybrid schemes
// (PCM-S and MWSR) under BPA versus the number of regions, for swapping
// periods 8-64 and two endurance levels.
func RunFig4(sc Scale) ([]Series, error) { return fig4Sweep(sc).run(sc) }

// fig4Sweep declares RunFig4's points.
func fig4Sweep(sc Scale) *lifetimeSweep {
	s := &lifetimeSweep{fig: "fig4"}
	for _, endurance := range sc.attackEndurances() {
		for _, scheme := range []SchemeKind{PCMS, MWSR} {
			for _, period := range []uint64{8, 16, 32, 64} {
				s.series(fmt.Sprintf("%s Wmax=%d ψ=%d", scheme, endurance, period))
				for _, regions := range regionSweep(sc.AttackLines) {
					q := sc.AttackLines / regions
					s.point(float64(regions), SystemConfig{
						Scheme: scheme, Lines: sc.AttackLines, SpareLines: sc.attackSpares(),
						Endurance: endurance, RegionLines: q, Period: period,
					}, bpaAttack(period*q))
				}
			}
		}
	}
	return s
}

// fig5Budgets is the scaled on-chip SRAM budget sweep of Fig 5 (bytes).
var fig5Budgets = []uint64{1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 15}

// RunFig5 reproduces Fig 5: normalized lifetime of PCM-S and MWSR under
// BPA as a function of the on-chip cache budget. A budget of B bytes
// limits the number of regions each scheme can track (MWSR entries are
// about twice the size of PCM-S entries, which is why it does worse at
// equal budget). Budgets are scaled: the paper sweeps 64 KB-4 MB on 64 GB.
func RunFig5(sc Scale) ([]Series, error) { return fig5Sweep(sc).run(sc) }

// fig5Sweep declares RunFig5's points.
func fig5Sweep(sc Scale) *lifetimeSweep {
	s := &lifetimeSweep{fig: "fig5"}
	for _, endurance := range sc.attackEndurances() {
		for _, scheme := range []SchemeKind{PCMS, MWSR} {
			s.series(fmt.Sprintf("%s Wmax=%d", scheme, endurance))
			for _, budget := range fig5Budgets {
				q := sc.AttackLines / regionsForBudget(scheme, budget, sc.AttackLines)
				s.point(float64(budget)/1024, SystemConfig{ // x in KB
					Scheme: scheme, Lines: sc.AttackLines, SpareLines: sc.attackSpares(),
					Endurance: endurance, RegionLines: q, Period: 32,
				}, bpaAttack(32*q))
			}
		}
	}
	return s
}

// regionsForBudget returns the largest power-of-two region count whose
// mapping table fits in `budget` bytes of SRAM for the scheme.
func regionsForBudget(scheme SchemeKind, budget uint64, lines uint64) uint64 {
	best := uint64(2)
	for r := uint64(2); r <= lines/4; r <<= 1 {
		var entry uint64
		if scheme == PCMS {
			entry = pcms.EntryBits(r, lines/r) + 24
		} else {
			entry = mwsr.EntryBits(r, lines/r) + 24
		}
		if r*entry <= budget*8 {
			best = r
		}
	}
	return best
}

// RunFig15 reproduces Fig 15: normalized BPA lifetime of PCM-S, MWSR and
// SAWL versus swapping period, for two endurance levels. PCM-S and MWSR
// must keep their whole table on chip, which caps their region count (the
// paper's Sec 2.2 item 4): scaled here to 64-line regions for PCM-S and —
// entries twice the size — 128-line regions for MWSR. SAWL stores the full
// table in NVM and wear-levels at the initial 4-line granularity with no
// such bound, which is why it wins by the paper's 25-51% (50-78% at low
// endurance).
func RunFig15(sc Scale) ([]Series, error) { return fig15Sweep(sc).run(sc) }

// fig15Sweep declares RunFig15's points.
func fig15Sweep(sc Scale) *lifetimeSweep {
	s := &lifetimeSweep{fig: "fig15"}
	for _, endurance := range sc.attackEndurances() {
		for _, scheme := range []SchemeKind{PCMS, MWSR, SAWL} {
			s.series(fmt.Sprintf("%s Wmax=%d", scheme, endurance))
			for _, period := range []uint64{8, 16, 32, 64} {
				cfg := SystemConfig{
					Scheme: scheme, Lines: sc.AttackLines, SpareLines: sc.attackSpares(),
					Endurance: endurance, Period: period,
				}
				burst := uint64(4) // SAWL's initial granularity
				switch scheme {
				case SAWL:
					cfg.CMTEntries = sc.CMTEntries
				case PCMS:
					// On-chip bound, scaled: PCM-S affords 16-line regions,
					// MWSR (double-size entries) 32-line regions.
					cfg.RegionLines, burst = 16, 16
				case MWSR:
					cfg.RegionLines, burst = 32, 32
				}
				s.point(float64(period), cfg, bpaAttack(period*burst))
			}
		}
	}
	return s
}

// fig16Schemes are the schemes Fig 16 compares across the SPEC suite.
var fig16Schemes = []SchemeKind{Baseline, RBSG, TLSR, SAWL}

// RunFig16 reproduces Fig 16: normalized lifetime under the 14 SPEC-like
// applications for Baseline, RBSG, TLSR and SAWL, in two region
// configurations — (a) few large regions, (b) many small regions. The
// final point of each series is the harmonic mean, the paper's "Hmean"
// bar. X values index the benchmark in SpecBenchmarks() order (the Hmean
// point is appended at index len(benchmarks)).
func RunFig16(sc Scale, coarse bool) ([]Series, error) { return fig16Sweep(sc, coarse).run(sc) }

// fig16Sweep declares RunFig16's points.
func fig16Sweep(sc Scale, coarse bool) *lifetimeSweep {
	// (a) coarse: 64-line regions (the paper's 4096-region config, where
	// RBSG/TLSR regions are large); (b) fine: 8-line regions (the paper's
	// 1M-region config).
	fig, regions := "fig16a", sc.SpecLines/64
	if !coarse {
		fig, regions = "fig16b", sc.SpecLines/8
	}
	regions = max(regions, 4)
	names := workload.Names()
	// One point per (scheme, benchmark), scheme-major. Benchmarks vary
	// ~10x in run time with footprint, so the footprint is the
	// longest-job-first hint that keeps the parallel tail short.
	s := &lifetimeSweep{fig: fig, hmean: true, cost: metrics.CycleCost(workload.Footprints(names))}
	for _, scheme := range fig16Schemes {
		s.series(string(scheme))
		for bi, name := range names {
			cfg := SystemConfig{
				Scheme: scheme, Lines: sc.SpecLines, SpareLines: sc.specSpares(),
				Endurance: sc.SpecEndurance, Period: sc.SpecPeriod,
				Regions: regions, InitGran: sc.SpecLines / regions, CMTEntries: sc.CMTEntries,
			}
			if scheme == SAWL {
				// Sec 4.1: SAWL's initial wear-leveling granularity is a few
				// memory lines regardless of the RBSG/TLSR region config;
				// the region sweep only affects the algebraic schemes.
				cfg.InitGran = 8
			}
			s.point(float64(bi), cfg, WorkloadSpec{Kind: WorkloadSPEC, Name: name})
		}
	}
	return s
}

// SweepRegionLines and SweepPeriods are the default region-size x period
// grid of the generic `sweep` experiment.
var (
	SweepRegionLines = []uint64{4, 16, 64, 256}
	SweepPeriods     = []uint64{8, 16, 32, 64}
)

// RunSweep measures BPA lifetime for one scheme across region sizes and
// swapping periods — the generic parameter exploration behind cmd/wlsim's
// `sweep` experiment. Each series is one period; X is the region size in
// lines.
func RunSweep(sc Scale, kind SchemeKind, regionLines, periods []uint64) ([]Series, error) {
	return gridSweep(sc, kind, regionLines, periods).run(sc)
}

// gridSweep declares RunSweep's points. The scheme and grid are sweep
// parameters outside Scale, so they are part of the cache identity.
func gridSweep(sc Scale, kind SchemeKind, regionLines, periods []uint64) *lifetimeSweep {
	s := &lifetimeSweep{fig: fmt.Sprintf("sweep:%s:q%v:p%v", kind, regionLines, periods)}
	for _, period := range periods {
		s.series(fmt.Sprintf("%s ψ=%d", kind, period))
		for _, q := range regionLines {
			s.point(float64(q), SystemConfig{
				Scheme: kind, Lines: sc.AttackLines, SpareLines: sc.attackSpares(),
				Endurance: sc.AttackEndurance, Period: period,
				RegionLines: q, Regions: sc.AttackLines / q, InitGran: min(q, 64),
				CMTEntries: sc.CMTEntries,
			}, bpaAttack(period*q))
		}
	}
	return s
}

// AttackKinds are the schemes the `attack` experiment scores — the full
// registered catalogue, baseline first (Sec 2.2's resilience comparison).
// The scheme list is part of the sweep's cache identity (attackFig), so
// growing the catalogue re-keys the sweep rather than misreading old rows.
var AttackKinds = Schemes()

// attackFig is the attack sweep's cache identity: the scheme list is a
// sweep parameter outside Scale, so it is part of the identity.
func attackFig(kinds []SchemeKind) string { return fmt.Sprintf("attack:%v", kinds) }

// RunAttackScores measures each scheme's normalized lifetime under RAA and
// a trigger-aware BPA at the attack scale — one pool job per scheme,
// returned in input order — for the Sec 2.2-style resilience verdicts. The
// RAA half always runs serial (a workload-level shard fallback) while the
// BPA half decomposes under -shards. An interrupted sweep returns the
// completed prefix of scores together with an error wrapping
// ErrInterrupted.
func RunAttackScores(sc Scale, kinds []SchemeKind) ([]analysis.AttackScore, error) {
	sh := newSharder(sc)
	return runJobs(sc, attackFig(kinds), true, len(kinds), jobOpts[analysis.AttackScore]{},
		func(i int, seed uint64) (analysis.AttackScore, error) {
			run := func(w WorkloadSpec) (float64, error) {
				res, err := sh.run(SystemConfig{
					Scheme: kinds[i], Lines: sc.AttackLines, SpareLines: sc.attackSpares(),
					Endurance: sc.AttackEndurance, Period: 8,
					RegionLines: 64, Regions: 16, InitGran: 4,
					CMTEntries: sc.CMTEntries, Seed: seed,
				}, w, 0)
				return res.Normalized, err
			}
			raa, err := run(WorkloadSpec{Kind: WorkloadRAA, Target: 99})
			if err != nil {
				return analysis.AttackScore{}, err
			}
			// Trigger-aware bursts: one swap period per remap unit, a
			// 64-line region or the tiered schemes' 4-line granularity.
			repeats := uint64(8 * 64)
			if kinds[i] == SAWL || kinds[i] == NWL {
				repeats = 8 * 4
			}
			bpa, err := run(WorkloadSpec{Kind: WorkloadBPA, Seed: seed, Repeats: repeats})
			if err != nil {
				return analysis.AttackScore{}, err
			}
			return analysis.AttackScore{RAANormalized: raa, BPANormalized: bpa}, nil
		})
}

// Experiment registrations for this file's runners. The lifetime sweeps
// all go through the intra-run sharder, so they carry the Sharded
// capability flag (shard-salted cache keys). Each Plan is the same builder
// its runner executes.
func init() {
	Register(Experiment{
		Name:        "fig3",
		Description: "TLSR lifetime vs number of regions (BPA)",
		Figure:      "Fig 3",
		Order:       30, InAll: true, Sharded: true,
		Plan: func(sc Scale) []JobSpec { return fig3Sweep(sc).plan() },
		Run: func(sc Scale) (Result, error) {
			s, err := RunFig3(sc)
			return Result{s}, err
		},
		Render: renderSeries("fig3",
			"Fig 3: TLSR normalized lifetime (%) vs number of regions, BPA",
			"regions", true),
	})
	Register(Experiment{
		Name:        "fig4",
		Description: "PCM-S/MWSR lifetime vs number of regions (BPA)",
		Figure:      "Fig 4",
		Order:       40, InAll: true, Sharded: true,
		Plan: func(sc Scale) []JobSpec { return fig4Sweep(sc).plan() },
		Run: func(sc Scale) (Result, error) {
			s, err := RunFig4(sc)
			return Result{s}, err
		},
		Render: renderSeries("fig4",
			"Fig 4: PCM-S/MWSR normalized lifetime (%) vs number of regions, BPA",
			"regions", true),
	})
	Register(Experiment{
		Name:        "fig5",
		Description: "hybrid lifetime vs on-chip cache budget (BPA)",
		Figure:      "Fig 5",
		Order:       50, InAll: true, Sharded: true,
		Plan: func(sc Scale) []JobSpec { return fig5Sweep(sc).plan() },
		Run: func(sc Scale) (Result, error) {
			s, err := RunFig5(sc)
			return Result{s}, err
		},
		Render: renderSeries("fig5",
			"Fig 5: hybrid lifetime (%) vs on-chip cache budget (KB), BPA",
			"budgetKB", false),
	})
	Register(Experiment{
		Name:        "fig15",
		Description: "PCM-S / MWSR / SAWL lifetime vs swapping period (BPA)",
		Figure:      "Fig 15",
		Order:       150, InAll: true, Sharded: true,
		Plan: func(sc Scale) []JobSpec { return fig15Sweep(sc).plan() },
		Run: func(sc Scale) (Result, error) {
			s, err := RunFig15(sc)
			return Result{s}, err
		},
		Render: renderSeries("fig15",
			"Fig 15: normalized lifetime (%) vs swapping period, BPA",
			"period", false),
	})
	Register(Experiment{
		Name:        "fig16",
		Description: "lifetime under 14 SPEC-like applications",
		Figure:      "Fig 16",
		Order:       160, InAll: true, Sharded: true,
		Plan: func(sc Scale) []JobSpec {
			return append(fig16Sweep(sc, true).plan(), fig16Sweep(sc, false).plan()...)
		},
		Run: func(sc Scale) (Result, error) {
			var p fig16Panels
			var err error
			if p.Coarse, err = RunFig16(sc, true); err != nil {
				return Result{p}, err
			}
			p.Fine, err = RunFig16(sc, false)
			return Result{p}, err
		},
		Render: renderFig16,
	})
	Register(Experiment{
		Name:        "attack",
		Description: "RAA + BPA resilience verdict per scheme (Sec 2.2)",
		Figure:      "Sec 2.2",
		Order:       220,
		Sharded:     true,
		Plan: func(sc Scale) []JobSpec {
			return planJobs(attackFig(AttackKinds), len(AttackKinds))
		},
		Run: func(sc Scale) (Result, error) {
			scores, err := RunAttackScores(sc, AttackKinds)
			return Result{scores}, err
		},
		Render: renderAttack,
	})
	// The registered sweep explores Scale.SweepScheme (default PCMS) over
	// the default grid.
	Register(Experiment{
		Name:        "sweep",
		Description: "BPA lifetime over region-size x period grid (-scheme)",
		Figure:      "-",
		Order:       230, Sharded: true,
		Plan: func(sc Scale) []JobSpec {
			return gridSweep(sc, cmp.Or(sc.SweepScheme, PCMS), SweepRegionLines, SweepPeriods).plan()
		},
		Run: func(sc Scale) (Result, error) {
			kind := cmp.Or(sc.SweepScheme, PCMS)
			s, err := RunSweep(sc, kind, SweepRegionLines, SweepPeriods)
			return Result{sweepResult{Kind: kind, Series: s}}, err
		},
		Render: func(r Result) ([]Table, []SVG) {
			res, _ := r.Value.(sweepResult)
			g := SVG{Name: "sweep",
				Title: fmt.Sprintf("BPA lifetime (%%) sweep: %s", res.Kind),
				XName: "regionLines", YName: "value", Series: res.Series}
			return []Table{figTable(g, "%.2f")}, []SVG{g}
		},
	})
}

// fig16Panels is the fig16 experiment's payload: panel (a) coarse regions,
// panel (b) fine regions. An interrupted run carries whatever completed.
type fig16Panels struct {
	Coarse, Fine []Series
}

// sweepResult is the sweep experiment's payload.
type sweepResult struct {
	Kind   SchemeKind
	Series []Series
}

// renderFig16 renders both Fig 16 panels: per-panel tables with benchmark
// rows relabeled to names, Hmean last, plus one SVG per panel.
func renderFig16(r Result) ([]Table, []SVG) {
	p, _ := r.Value.(fig16Panels)
	var tables []Table
	var svgs []SVG
	panel := func(name, sub string, series []Series) {
		if series == nil {
			return
		}
		g := SVG{Name: name,
			Title: fmt.Sprintf("Fig 16 %s: normalized lifetime (%%) under SPEC-like applications", sub),
			XName: "bench#", YName: "value", Series: series}
		t := figTable(g, "%.1f")
		relabelBenchRows(&t)
		tables = append(tables, t)
		svgs = append(svgs, g)
	}
	panel("fig16a", "(a) coarse regions", p.Coarse)
	panel("fig16b", "(b) fine regions", p.Fine)
	return tables, svgs
}

// renderAttack renders the per-scheme RAA/BPA scores and verdicts.
func renderAttack(r Result) ([]Table, []SVG) {
	scores, _ := r.Value.([]analysis.AttackScore)
	t := Table{
		Title:   "Attack resilience (Sec 2.2)",
		Columns: []string{"scheme", "RAA life%", "BPA life%", "verdict"},
	}
	for i, score := range scores {
		t.Rows = append(t.Rows, []string{
			string(AttackKinds[i]),
			fmt.Sprintf("%.1f%%", 100*score.RAANormalized),
			fmt.Sprintf("%.1f%%", 100*score.BPANormalized),
			score.Verdict(),
		})
	}
	return []Table{t}, nil
}
