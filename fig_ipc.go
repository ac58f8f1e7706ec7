package nvmwear

import (
	"nvmwear/internal/metrics"
	"nvmwear/internal/sim"
	"nvmwear/internal/workload"
)

// instrFor returns the benchmark's compute intensity.
func instrFor(name string) float64 {
	if v, ok := sim.InstrPerMemReq[name]; ok {
		return v
	}
	return 30
}

// This file implements the performance experiment of Sec 4.4 (Fig 17):
// IPC degradation of the wear-leveling schemes relative to a baseline
// without wear leveling, across the 14 SPEC-like applications.

func init() {
	Register(Experiment{
		Name:        "fig17",
		Description: "IPC degradation vs no-wear-leveling baseline",
		Figure:      "Fig 17",
		Order:       170, InAll: true,
		Plan: func(sc Scale) []JobSpec {
			// One baseline row plus one row per scheme, benchmark-major.
			return planJobs("fig17", (1+len(Fig17Schemes))*len(workload.Names()))
		},
		Run: func(sc Scale) (Result, error) {
			s, err := RunFig17(sc)
			return Result{s}, err
		},
		Render: func(r Result) ([]Table, []SVG) {
			series, _ := r.Value.([]Series)
			g := SVG{Name: "fig17",
				Title:  "Fig 17: IPC degradation (%) vs baseline without wear leveling",
				XName:  "bench#",
				YName:  "value",
				Series: series,
			}
			t := figTable(g, "%.1f")
			relabelBenchRows(&t)
			return []Table{t}, []SVG{g}
		},
	})
}

// Fig17Schemes are the compared configurations: BWL is the basic non-tiered
// hybrid (PCM-S with its whole table on chip at 4-line granularity), NWL-4
// the naive tiered scheme, and SAWL the adaptive one.
var Fig17Schemes = []SchemeKind{PCMS, NWL, SAWL}

// Fig17Labels maps the scheme kinds to the paper's bar labels.
func Fig17Labels(k SchemeKind) string {
	switch k {
	case PCMS:
		return "BWL"
	case NWL:
		return "NWL-4"
	default:
		return "SAWL"
	}
}

// RunFig17 reproduces Fig 17: per-benchmark IPC degradation (percent,
// relative to the no-wear-leveling baseline) for BWL, NWL-4 and SAWL, with
// the harmonic-mean summary appended as the final X point.
//
// All (1 + len(Fig17Schemes)) × 14 timing runs fan out as one flat job
// list: the baseline runs occupy indices 0..13, scheme runs follow
// scheme-major. Every run keeps sc.Seed so a scheme and its baseline
// measure the identical request stream — the degradation comparison the
// figure is about.
func RunFig17(sc Scale) ([]Series, error) {
	names := workload.Names()
	schemes := Fig17Schemes
	// Benchmark footprint drives per-job wall time (the paper's ~10x
	// spread), so it is the longest-job-first hint; the layout is
	// benchmark-major within each scheme row, which metrics.CycleCost
	// assumes.
	results, err := runJobs(sc, "fig17", false, (1+len(schemes))*len(names),
		jobOpts[TimingResult]{cost: metrics.CycleCost(workload.Footprints(names))},
		func(i int, _ uint64) (TimingResult, error) {
			scheme, name := Baseline, names[i%len(names)]
			if i >= len(names) {
				scheme = schemes[i/len(names)-1]
			}
			return runTiming(sc, scheme, name)
		})
	if len(results) < len(names) {
		// Interrupted before the baseline row finished: no degradation can
		// be computed at all.
		return nil, err
	}
	baseline := results[:len(names)]

	out := make([]Series, len(schemes))
	for si, scheme := range schemes {
		out[si].Label = Fig17Labels(scheme)
		if (2+si)*len(names) > len(results) {
			continue // interrupted sweep: this scheme's row is incomplete
		}
		rows := results[(1+si)*len(names) : (2+si)*len(names)]
		var ipcs, baseIPCs []float64
		for bi, res := range rows {
			deg := 100 * res.Degradation(baseline[bi])
			if deg < 0 {
				deg = 0
			}
			out[si].Append(float64(bi), deg)
			ipcs = append(ipcs, res.IPC)
			baseIPCs = append(baseIPCs, baseline[bi].IPC)
		}
		// The paper reports the harmonic-mean IPC comparison.
		hm := metrics.HarmonicMean(ipcs)
		hmBase := metrics.HarmonicMean(baseIPCs)
		deg := 0.0
		if hmBase > 0 {
			deg = 100 * (1 - hm/hmBase)
			if deg < 0 {
				deg = 0
			}
		}
		out[si].Append(float64(len(names)), deg)
	}
	return out, err
}

// runTiming executes one timing simulation of `sc.Requests/4` memory
// requests for the scheme/benchmark pair.
func runTiming(sc Scale, scheme SchemeKind, bench string) (TimingResult, error) {
	requests := sc.Requests / 4
	// A quarter of the hit-rate experiments' trace space: the IPC runs must
	// reach adaptation steady state within the warmup budget (every region
	// merges at most log2(MaxGran/P) times, so convergence needs warmup
	// proportional to the footprint's region count).
	cfg := SystemConfig{
		Scheme:     scheme,
		Lines:      sc.traceLines() / 4,
		SpareLines: 1,
		Endurance:  1 << 30,
		Period:     128,
		CMTEntries: sc.CMTEntries,
		Seed:       sc.Seed,
		// Adaptation windows scaled to the run length (the paper's 2^22
		// against 7e8-request runs).
		ObservationWindow: requests / 256,
		SettlingWindow:    requests / 256,
	}
	if scheme == PCMS || scheme == NWL {
		cfg.RegionLines = 4
		cfg.InitGran = 4
	}
	if scheme == PCMS {
		// The non-tiered BWL needs a short swapping period to reach a
		// lifetime comparable to the tiered schemes (Sec 4.3 evaluates it
		// at periods 8-64); 16 is the midpoint used here.
		cfg.Period = 16
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		return TimingResult{}, err
	}
	stream, name, err := WorkloadSpec{Kind: WorkloadSPEC, Name: bench, Seed: sc.Seed}.Build(sys.Lines())
	if err != nil {
		return TimingResult{}, err
	}
	// Warm up untimed (standard simulation methodology): caches fill and
	// SAWL's granularity adaptation converges before measurement begins.
	for i := uint64(0); i < sc.Requests; i++ {
		r := stream.Next()
		sys.lv.Access(r.Op, r.Addr)
	}
	return sim.Run(sys.lv, stream, sim.Config{
		Requests:           requests,
		InstrPerMemReq:     instrFor(name),
		GlobalSwapBlocking: scheme == PCMS,
	}), nil
}
