package nvmwear

import (
	"fmt"
	"math"

	"nvmwear/internal/core"
	"nvmwear/internal/lifetime"
)

// This file implements the adaptive-behavior experiments: the sensitivity
// studies of Sec 4.2 (Figs 12 and 13) and the per-benchmark hit-rate /
// region-size traces of Fig 14.
//
// These runs are fixed-length (no device wear-out needed), so the device is
// built with effectively unlimited endurance and the figures plot the
// runtime evolution of the CMT hit rate and the wear-leveling granularity.

// sawlTraceConfig builds the SystemConfig used by the Sec 4.2 experiments:
// SAWL over the scaled device with a given observation/settling window.
func sawlTraceConfig(sc Scale, sow, ssw uint64, onSample func(core.Sample)) SystemConfig {
	return SystemConfig{
		Scheme:            SAWL,
		Lines:             sc.traceLines(),
		SpareLines:        1, // never exhausted: Endurance below is huge
		Endurance:         1 << 30,
		Period:            128,
		CMTEntries:        sc.CMTEntries,
		ObservationWindow: sow,
		SettlingWindow:    ssw,
		CheckEvery:        checkEvery(sc),
		Seed:              sc.Seed,
		OnSample:          onSample,
	}
}

// runTrace drives `requests` of the named SPEC profile through SAWL and
// returns the sampled (hit rate, region size) trajectories.
func runTrace(sc Scale, bench string, sow, ssw uint64) (hit, size Series, avgHit float64, err error) {
	hit = Series{Label: fmt.Sprintf("SOW=%d", sow)}
	size = Series{Label: fmt.Sprintf("SSW=%d", ssw)}
	var sum float64
	var n int
	sys, err := NewSystem(sawlTraceConfig(sc, sow, ssw, func(s core.Sample) {
		hit.Append(float64(s.Requests), 100*s.HitRate)
		size.Append(float64(s.Requests), s.AvgRegionLines)
		sum += s.HitRate
		n++
	}))
	if err != nil {
		return hit, size, 0, err
	}
	stream, _, err := WorkloadSpec{Kind: WorkloadSPEC, Name: bench, Seed: sc.Seed}.Build(sc.traceLines())
	if err != nil {
		return hit, size, 0, err
	}
	lifetime.Serve(sys.dev, sys.lv, stream, math.MaxUint64, sc.Requests)
	if n > 0 {
		avgHit = 100 * sum / float64(n)
	}
	return hit, size, avgHit, nil
}

// RunFig12 reproduces Fig 12: the sampled cache hit rate as a function of
// runtime for different observation-window sizes, under the soplex-like
// benchmark. Small windows fluctuate; large windows flatten and miss the
// adjustment points (Sec 4.2 item 1). Window sizes are scaled from the
// paper's 2^20-2^26 sweep proportionally to Scale.Requests.
//
// The four window sizes run as parallel jobs. Each job keeps sc.Seed (not
// the job-derived seed): the figure compares window sizes on the identical
// soplex request stream, as the serial loops did.
func RunFig12(sc Scale) ([]Series, error) {
	windows := scaledWindows(sc)
	// Each job produces one complete series, so streaming is per-job.
	var o jobOpts[Series]
	if sc.SeriesDone != nil {
		o.onJob = func(_ int, s Series) { sc.SeriesDone("fig12", s) }
	}
	return runJobs(sc, "fig12", false, len(windows), o, func(i int, _ uint64) (Series, error) {
		sow := windows[i]
		hit, _, _, err := runTrace(sc, "soplex", sow, sc.Requests/4)
		if err != nil {
			return Series{}, err
		}
		hit.Label = fmt.Sprintf("SOW=2^%d", log2u(sow))
		return hit, nil
	})
}

// RunFig13 reproduces Fig 13: the region-size trajectory for different
// settling-window sizes under soplex, each annotated (via the returned
// avg map) with the average cache hit rate — the paper's per-panel labels.
// Parallelized like RunFig12, sharing sc.Seed across jobs.
func RunFig13(sc Scale) ([]Series, map[string]float64, error) {
	windows := scaledWindows(sc)
	// Exported fields: job results round-trip through the gob-encoded
	// result cache (internal/exec).
	type point struct {
		Size   Series
		AvgHit float64
	}
	var o jobOpts[point]
	if sc.SeriesDone != nil {
		o.onJob = func(_ int, p point) { sc.SeriesDone("fig13", p.Size) }
	}
	res, err := runJobs(sc, "fig13", false, len(windows), o, func(i int, _ uint64) (point, error) {
		ssw := windows[i]
		_, size, avgHit, err := runTrace(sc, "soplex", sc.Requests/8, ssw)
		if err != nil {
			return point{}, err
		}
		size.Label = fmt.Sprintf("SSW=2^%d", log2u(ssw))
		return point{size, avgHit}, nil
	})
	var out []Series
	avg := make(map[string]float64)
	for _, p := range res {
		out = append(out, p.Size)
		avg[p.Size.Label] = p.AvgHit
	}
	return out, avg, err
}

// scaledWindows returns four window sizes spanning a 64x range scaled to
// the run length, mirroring the paper's 2^20/2^22/2^24/2^26 sweep against
// 7e8 requests.
func scaledWindows(sc Scale) []uint64 {
	base := sc.Requests / 512
	if base < 1024 {
		base = 1024
	}
	return []uint64{base, base * 4, base * 16, base * 64}
}

// checkEvery scales the hit-rate sampling interval to the run length (the
// paper samples every 100k requests against 7e8-request runs).
func checkEvery(sc Scale) uint64 {
	c := sc.Requests / 1024
	if c < 1024 {
		c = 1024
	}
	return c
}

func log2u(v uint64) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Experiment registrations for the adaptive-behavior figures. These are
// fixed-length trace runs the intra-run sharder never touches, so their
// runJobs calls are unsharded: their cache keys are the same at every
// -shards value.
func init() {
	Register(Experiment{
		Name:        "fig12",
		Description: "hit rate vs runtime for observation-window sizes",
		Figure:      "Fig 12",
		Order:       120, InAll: true,
		Run: func(sc Scale) (Result, error) {
			s, err := RunFig12(sc)
			return Result{s}, err
		},
		Render: renderSeries("fig12",
			"Fig 12: CMT hit rate (%) vs runtime for observation-window sizes (soplex)",
			"requests", false),
	})
	Register(Experiment{
		Name:        "fig13",
		Description: "region size vs runtime for settling-window sizes",
		Figure:      "Fig 13",
		Order:       130, InAll: true,
		Run: func(sc Scale) (Result, error) {
			series, avg, err := RunFig13(sc)
			return Result{fig13Result{Series: series, Avg: avg}}, err
		},
		Render: renderFig13,
	})
	Register(Experiment{
		Name:        "fig14",
		Description: "NWL-4 / NWL-64 / SAWL hit rates (bzip2, cactusADM, gcc)",
		Figure:      "Fig 14",
		Order:       140, InAll: true,
		Run: func(sc Scale) (Result, error) {
			res, err := RunFig14(sc)
			return Result{res}, err
		},
		Render: renderFig14,
	})
}

// fig13Result is the fig13 experiment's payload: the region-size
// trajectories plus the per-window average hit rates (the paper's panel
// labels).
type fig13Result struct {
	Series []Series
	Avg    map[string]float64
}

// renderFig13 renders the trajectories and a companion average-hit-rate
// table (one row per settling window).
func renderFig13(r Result) ([]Table, []SVG) {
	res, _ := r.Value.(fig13Result)
	g := SVG{Name: "fig13",
		Title: "Fig 13: region size (lines) vs runtime for settling-window sizes (soplex)",
		XName: "requests", YName: "value", Series: res.Series}
	avg := Table{
		Title:   "Fig 13: average cache hit rate per settling window",
		Columns: []string{"window", "avg hit rate %"},
	}
	for _, s := range res.Series {
		avg.Rows = append(avg.Rows, []string{s.Label, fmt.Sprintf("%.1f", res.Avg[s.Label])})
	}
	return []Table{figTable(g, "%.2f"), avg}, []SVG{g}
}

// renderFig14 renders the per-benchmark panels: one summary table of
// average hit rates plus each benchmark's SAWL region-size trace.
func renderFig14(r Result) ([]Table, []SVG) {
	res, _ := r.Value.([]Fig14Result)
	summary := Table{
		Title:   "Fig 14: average CMT hit rate (%)",
		Columns: []string{"bench", "NWL-4", "NWL-64", "SAWL"},
	}
	tables := []Table{summary}
	var svgs []SVG
	for _, p := range res {
		tables[0].Rows = append(tables[0].Rows, []string{p.Bench,
			fmt.Sprintf("%.1f", p.AvgNWL4),
			fmt.Sprintf("%.1f", p.AvgNWL64),
			fmt.Sprintf("%.1f", p.AvgSAWL)})
		g := SVG{Name: "fig14-" + p.Bench,
			Title: fmt.Sprintf("Fig 14 (%s): SAWL region-size trace", p.Bench),
			XName: "requests", YName: "value", Series: []Series{p.RegionSize}}
		tables = append(tables, figTable(g, "%.1f"))
		svgs = append(svgs, g)
	}
	return tables, svgs
}

// fig14Benches are Fig 14's three representative benchmarks.
var fig14Benches = []string{"bzip2", "cactusADM", "gcc"}

// Fig14Result holds one benchmark's panel of Fig 14.
type Fig14Result struct {
	Bench      string
	RegionSize Series  // SAWL region-size trajectory
	HitRate    Series  // SAWL hit-rate trajectory
	AvgNWL4    float64 // average hit rate, NWL with 4-line granularity
	AvgNWL64   float64 // average hit rate, NWL with 64-line granularity
	AvgSAWL    float64
}

// RunFig14 reproduces Fig 14: for each of the three representative
// benchmarks (bzip2, cactusADM, gcc), the SAWL hit-rate and region-size
// trajectories plus the average hit rates of NWL-4, NWL-64 and SAWL.
//
// The three measurements per benchmark (NWL-4, NWL-64, SAWL) are
// independent fixed-length runs, so all nine fan out as one job list.
func RunFig14(sc Scale) ([]Fig14Result, error) {
	benches := fig14Benches
	// Per-bench job triplet: NWL-4 avg, NWL-64 avg, SAWL trace.
	const perBench = 3
	// Exported fields: results round-trip through the gob result cache.
	type measure struct {
		Avg       float64
		Hit, Size Series
	}
	res, err := runJobs(sc, "fig14", false, perBench*len(benches), jobOpts[measure]{}, func(i int, _ uint64) (measure, error) {
		bench := benches[i/perBench]
		switch i % perBench {
		case 0:
			avg, err := runNWLHitRate(sc, bench, 4)
			return measure{Avg: avg}, err
		case 1:
			avg, err := runNWLHitRate(sc, bench, 64)
			return measure{Avg: avg}, err
		default:
			hit, size, avg, err := runTrace(sc, bench, sc.Requests/128, sc.Requests/128)
			if err != nil {
				return measure{}, err
			}
			hit.Label = "SAWL " + bench
			size.Label = "SAWL " + bench
			return measure{Avg: avg, Hit: hit, Size: size}, nil
		}
	})
	var out []Fig14Result
	for bi, bench := range benches {
		if (bi+1)*perBench > len(res) {
			break // interrupted sweep: only complete benchmark panels
		}
		nwl4, nwl64, sawl := res[bi*perBench], res[bi*perBench+1], res[bi*perBench+2]
		out = append(out, Fig14Result{
			Bench:      bench,
			AvgNWL4:    nwl4.Avg,
			AvgNWL64:   nwl64.Avg,
			AvgSAWL:    sawl.Avg,
			HitRate:    sawl.Hit,
			RegionSize: sawl.Size,
		})
	}
	return out, err
}

// runNWLHitRate measures the average CMT hit rate of the fixed-granularity
// tiered scheme on a benchmark.
func runNWLHitRate(sc Scale, bench string, gran uint64) (float64, error) {
	sys, err := NewSystem(SystemConfig{
		Scheme:     NWL,
		Lines:      sc.traceLines(),
		SpareLines: 1,
		Endurance:  1 << 30,
		Period:     128,
		InitGran:   gran,
		CMTEntries: sc.CMTEntries,
		Seed:       sc.Seed,
	})
	if err != nil {
		return 0, err
	}
	stream, _, err := WorkloadSpec{Kind: WorkloadSPEC, Name: bench, Seed: sc.Seed}.Build(sc.traceLines())
	if err != nil {
		return 0, err
	}
	lifetime.Serve(sys.dev, sys.lv, stream, math.MaxUint64, sc.Requests)
	return 100 * sys.Stats().CMTHitRate, nil
}
