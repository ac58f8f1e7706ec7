package nvmwear

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"nvmwear/internal/exec"
	"nvmwear/internal/fault"
	"nvmwear/internal/lifetime"
	"nvmwear/internal/metrics"
	"nvmwear/internal/plot"
	"nvmwear/internal/rng"
)

// This file implements the `fleet` experiment: a Monte Carlo over a
// population of simulated devices per scheme, where every device draws its
// own endurance process corner, per-cell variation, fault-rate vector and
// tenant workload mix from deterministic per-device seed substreams. Where
// the paper evaluates one device per configuration, a production deployment
// sees a population — and cares about the tail (p1 time-to-death, survival
// curves, uncorrectable-loss and spare-exhaustion rates), not the mean.
//
// The sweep is built to survive its own scale: a device run that errors or
// panics is quarantined (reported in the output, sweep continues), every
// completed device checkpoints through the result cache so a killed sweep
// resumes warm, cancellation yields a valid partial population with
// confidence-interval annotations, and a device whose geometry defeats the
// shard planner (workload-level fallbacks like RAA traces) runs serial
// instead of failing the sweep.

// FleetSchemes are the schemes the fleet sweep populates: the complete
// catalogue. Every scheme shards on a divisible geometry (exact or
// bank-local, see DESIGN.md §15), so under -shards a population run
// decomposes every device across the bank geometry — no scheme-level
// serial fallback.
var FleetSchemes = Schemes()

// fleetDefaultDevices is the per-scheme population when Scale.FleetDevices
// is unset — small enough for CI, large enough for distinct percentiles.
const fleetDefaultDevices = 16

// fleetDevices resolves the uniform per-scheme population size.
func (sc Scale) fleetDevices() int {
	if sc.FleetDevices > 0 {
		return sc.FleetDevices
	}
	return fleetDefaultDevices
}

// fleetPopulation resolves the planned device count per scheme: the
// uniform -devices base, overridden per scheme by Scale.FleetDeviceOverrides
// (cmd/wlsim's `-devices rbsg=64,pcms=16` syntax).
func (sc Scale) fleetPopulation(schemes []SchemeKind) []int {
	out := make([]int, len(schemes))
	for i, s := range schemes {
		out[i] = sc.fleetDevices()
		if n, ok := sc.FleetDeviceOverrides[s]; ok && n > 0 {
			out[i] = n
		}
	}
	return out
}

// fleetOffsets returns each scheme block's starting row in the scheme-major
// job list, plus the total job count.
func fleetOffsets(counts []int) (offs []int, total int) {
	offs = make([]int, len(counts))
	for i, c := range counts {
		offs[i] = total
		total += c
	}
	return offs, total
}

// Per-device seed substreams: every device derives its independent RNG
// roots from its job seed, so draws, device cells, fault stream and
// workload never share randomness — and never depend on worker count.
const (
	fleetStreamDraw     = 0 // parameter draws (endurance, variation, fault, tenant)
	fleetStreamDevice   = 1 // device cell endurance + scheme randomization
	fleetStreamWorkload = 2 // tenant workload stream
	fleetStreamFault    = 3 // fault-injection stream
)

// fleetFig is the sweep's cache identity: the scheme list and per-scheme
// population sizes are sweep parameters outside Scale, so they are folded
// in here — resizing or reshaping the fleet re-keys only the fleet's own
// jobs. A uniform population keeps the historical nN form; per-scheme
// overrides spell the full count vector.
func fleetFig(schemes []SchemeKind, counts []int) string {
	if uniformCounts(counts) {
		return fmt.Sprintf("fleet:%v:n%d", schemes, counts[0])
	}
	return fmt.Sprintf("fleet:%v:n%v", schemes, counts)
}

// uniformCounts reports whether every scheme plans the same device count.
func uniformCounts(counts []int) bool {
	for _, c := range counts {
		if c != counts[0] {
			return false
		}
	}
	return len(counts) > 0
}

// FleetDevice is one device of the population: its drawn identity plus the
// outcome of its lifetime run. Exported fields: rows round-trip through the
// gob result cache. A zero row (empty Cause) is a device whose job never
// ran — an interrupted sweep's hole.
type FleetDevice struct {
	Desc          lifetime.Descriptor
	LifePct       float64 // normalized lifetime, percent of ideal
	Served        uint64  // demand writes served
	SparesUsed    uint64
	FaultRemaps   uint64 // spare consumptions forced by fault recovery
	Reads         uint64
	Uncorrectable uint64
	Cause         string // lifetime.DeathCause; "quarantined" for isolated failures
	Error         string // quarantine cause (empty for healthy devices)
}

// FleetResult is the fleet experiment's payload. Rows is indexed like the
// job list (scheme-major with per-scheme counts: scheme s's block starts at
// the prefix sum of Devices[:s]) and always full length; holes from an
// interrupted sweep stay zero.
type FleetResult struct {
	Schemes []string
	Devices []int // planned population per scheme (parallel to Schemes)
	Rows    []FleetDevice
}

func init() {
	Register(Experiment{
		Name:        "fleet",
		Description: "population Monte Carlo: per-device draws, survival and quarantine",
		Figure:      "-",
		Order:       215,
		Run: func(sc Scale) (Result, error) {
			fr, err := RunFleet(sc)
			return Result{fr}, err
		},
		Render: renderFleet,
	})
}

// RunFleet runs the fleet population sweep. Every device is one pool job:
// it draws its parameters from its seed substreams, builds the system and
// tenant workload, and runs to device death (or the 4x-ideal write budget)
// under the sweep's shard policy. With every catalogue entry shardable,
// every scheme's devices decompose across the bank geometry under -shards;
// only workload-level fallbacks (RAA, file traces) run serial, logged once,
// never failing the sweep. Device failures (errors or
// panics) are quarantined: recorded with their cause on the device's row
// while the rest of the population completes. An interrupted sweep returns
// every completed row plus an error wrapping ErrInterrupted.
func RunFleet(sc Scale) (FleetResult, error) {
	schemes := FleetSchemes
	counts := sc.fleetPopulation(schemes)
	offs, n := fleetOffsets(counts)
	fig := fleetFig(schemes, counts)

	// Scheme-major job layout with per-scheme counts: job i is device
	// deviceOf[i] of scheme schemeOf[i].
	schemeOf := make([]int, n)
	deviceOf := make([]int, n)
	for si, c := range counts {
		for d := 0; d < c; d++ {
			schemeOf[offs[si]+d] = si
			deviceOf[offs[si]+d] = d
		}
	}

	// Rows land by index as their jobs complete — quarantined jobs never
	// do — so the population keeps full length, with holes where an
	// interrupted sweep never ran a device. Both hooks run under the
	// pool's lock.
	rows := make([]FleetDevice, n)
	quarantined := make(map[int]error, 1)
	sh := newSharder(sc)
	_, err := runJobs(sc, fig, true, n, jobOpts[FleetDevice]{
		cost:       fleetCost(sc, schemes, schemeOf, deviceOf),
		onJob:      func(i int, row FleetDevice) { rows[i] = row },
		quarantine: func(i int, qerr error) { quarantined[i] = qerr },
	}, func(i int, seed uint64) (FleetDevice, error) {
		desc, cfg, w := fleetDraw(sc, schemes[schemeOf[i]], deviceOf[i], seed)
		if sc.FleetPoison == i+1 {
			panic(fmt.Sprintf("poisoned device %s (WLSIM_FLEET_POISON test hook)", desc))
		}
		res, err := sh.run(cfg, w, 0)
		if err != nil {
			return FleetDevice{}, fmt.Errorf("device %s: %w", desc, err)
		}
		return FleetDevice{
			Desc:          desc,
			LifePct:       100 * res.Normalized,
			Served:        res.Served,
			SparesUsed:    res.SparesUsed,
			FaultRemaps:   res.FaultRemaps,
			Reads:         res.Reads,
			Uncorrectable: res.Uncorrectable,
			Cause:         string(res.Cause),
		}, nil
	})

	out := FleetResult{Devices: counts, Rows: rows}
	for _, s := range schemes {
		out.Schemes = append(out.Schemes, string(s))
	}
	// Quarantined rows: recompute the draw (deterministic from the job
	// seed) so the report still identifies the device, and record the
	// cause. Panics are reported by their value alone — the stack is in the
	// pool's error, but tables must stay byte-deterministic.
	for i, qerr := range quarantined {
		desc, _, _ := fleetDraw(sc, schemes[schemeOf[i]], deviceOf[i],
			rng.SeedStream(sc.Seed, uint64(i)))
		cause := qerr.Error()
		var pe *exec.PanicError
		if errors.As(qerr, &pe) {
			cause = fmt.Sprintf("panic: %v", pe.Value)
		}
		out.Rows[i] = FleetDevice{
			Desc:  desc,
			Cause: string(lifetime.CauseQuarantined),
			Error: cause,
		}
	}
	return out, err
}

// fleetCost ranks fleet jobs for the pool's longest-job-first dispatch.
// A device's runtime is predictable before it runs: fault-heavy devices pay
// injector draws plus retry/recovery work on every faulting access (the
// dominant term), high-variation devices wear unevenly and churn spares,
// and high-endurance corners serve the most writes before dying. All three
// come out of the deterministic parameter draw, so ranking costs nothing.
// This is purely a dispatch-order hint: results are position-keyed and
// returned in submission order, so cost can never change the output.
func fleetCost(sc Scale, schemes []SchemeKind, schemeOf, deviceOf []int) func(i int) float64 {
	return func(i int) float64 {
		desc, _, _ := fleetDraw(sc, schemes[schemeOf[i]], deviceOf[i],
			rng.SeedStream(sc.Seed, uint64(i)))
		return desc.FaultRate*1e6 + desc.Variation +
			float64(desc.Endurance)/float64(uint64(1)<<32)
	}
}

// fleetDraw derives device (scheme, d)'s identity from its seed: an
// endurance process corner (±30% around the scale's attack endurance), a
// per-cell variation CoV in [0, 0.3), a fault-rate vector (half the fleet
// fault-free, the rest log-uniform in [1e-6, 1e-3) driving transient,
// read-disturb and metadata faults, stuck-at at a tenth), and a tenant mix
// (3:1 SPEC profile vs uniform with a drawn write ratio). Everything comes
// off the draw substream in a fixed order, so a device's identity depends
// only on (Scale.Seed, job index).
func fleetDraw(sc Scale, scheme SchemeKind, device int, seed uint64) (lifetime.Descriptor, SystemConfig, WorkloadSpec) {
	src := rng.New(rng.SeedStream(seed, fleetStreamDraw))
	endurance := uint32(float64(sc.AttackEndurance) * (0.7 + 0.6*src.Float64()))
	if endurance < 100 {
		endurance = 100
	}
	variation := 0.3 * src.Float64()
	rate := 0.0
	if src.Bool(0.5) {
		rate = math.Pow(10, -6+3*src.Float64())
	}
	w := WorkloadSpec{Seed: rng.SeedStream(seed, fleetStreamWorkload)}
	if names := SpecBenchmarks(); src.Bool(0.75) {
		w.Kind = WorkloadSPEC
		w.Name = names[src.Intn(len(names))]
	} else {
		w.Kind = WorkloadUniform
		w.WriteRatio = 0.3 + 0.4*src.Float64()
	}
	wname := w.Name
	if wname == "" {
		wname = fmt.Sprintf("uniform/%.2f", w.WriteRatio)
	}

	cfg := SystemConfig{
		Scheme: scheme, Lines: sc.AttackLines, SpareLines: sc.attackSpares(),
		Endurance: endurance, Variation: variation, Period: 8,
		RegionLines: 64, InitGran: 4, CMTEntries: sc.CMTEntries,
		Regions: max(sc.AttackLines/64, 1),
		Seed:    rng.SeedStream(seed, fleetStreamDevice),
	}
	if rate > 0 {
		cfg.Fault = fault.Config{
			TransientWriteRate: rate,
			StuckAtRate:        rate / 10,
			ReadDisturbRate:    rate,
			MetadataRate:       rate,
			Seed:               rng.SeedStream(seed, fleetStreamFault),
		}
	}
	desc := lifetime.Descriptor{
		Scheme:    string(scheme),
		Device:    device,
		Workload:  wname,
		Endurance: endurance,
		Variation: variation,
		FaultRate: rate,
		Seed:      seed,
	}
	return desc, cfg, w
}

// fleetPlanLabel renders the planned population for the summary title:
// "16 devices/scheme" for a uniform fleet, "rbsg=64, pcms=16, ..." when
// per-scheme overrides make it ragged.
func fleetPlanLabel(schemes []string, counts []int) string {
	if uniformCounts(counts) {
		return fmt.Sprintf("%d devices/scheme", counts[0])
	}
	parts := make([]string, 0, len(schemes))
	for i, s := range schemes {
		if i < len(counts) {
			parts = append(parts, fmt.Sprintf("%s=%d", s, counts[i]))
		}
	}
	return strings.Join(parts, ", ")
}

// renderFleet builds the fleet's output: a per-scheme population summary
// (counts by death cause, p1/p50/p99 lifetime, mean with its 95% CI,
// uncorrectable-loss and spare-exhaustion rates), a quarantine report when
// any device was isolated, and per-scheme survival step curves. Partial
// populations (interrupted sweeps) render from whatever rows exist — the
// ran/planned column and the widened CI carry the uncertainty.
func renderFleet(r Result) ([]Table, []SVG) {
	fr, _ := r.Value.(FleetResult)
	sum := Table{
		Title: fmt.Sprintf("Fleet population (%s planned)", fleetPlanLabel(fr.Schemes, fr.Devices)),
		Columns: []string{"scheme", "devices", "quar", "wearout", "faults", "alive",
			"dead%", "p1", "p50", "p99", "mean±95%", "uncorr/Mrd"},
	}
	quar := Table{
		Title:   "Quarantined devices",
		Columns: []string{"device", "cause"},
	}
	var curves, stepped []Series

	offs, _ := fleetOffsets(fr.Devices)
	for si, scheme := range fr.Schemes {
		planned := 0
		if si < len(fr.Devices) {
			planned = fr.Devices[si]
		}
		var lives, deaths []float64
		var reads, lost uint64
		counts := map[string]int{}
		for d := 0; d < planned; d++ {
			i := offs[si] + d
			if i >= len(fr.Rows) {
				break
			}
			row := fr.Rows[i]
			if row.Cause == "" {
				continue // job never ran (interrupted sweep)
			}
			if row.Cause == string(lifetime.CauseQuarantined) {
				counts["quar"]++
				quar.Rows = append(quar.Rows, []string{row.Desc.String(), row.Error})
				continue
			}
			counts[row.Cause]++
			lives = append(lives, row.LifePct)
			if row.Cause != string(lifetime.CauseAlive) {
				// Rounded to 0.01%: equal deaths group into one curve
				// step and the table's X column stays readable.
				deaths = append(deaths, math.Round(row.LifePct*100)/100)
			}
			reads += row.Reads
			lost += row.Uncorrectable
		}
		ran := len(lives) + counts["quar"]
		qs := metrics.Quantiles(lives, 0.01, 0.5, 0.99)
		mean, half := metrics.MeanCI95(lives)
		deadFrac, lossPPM := 0.0, 0.0
		if len(lives) > 0 {
			deadFrac = 100 * float64(len(deaths)) / float64(len(lives))
		}
		if reads > 0 {
			lossPPM = float64(lost) / float64(reads) * 1e6
		}
		sum.Rows = append(sum.Rows, []string{
			scheme,
			fmt.Sprintf("%d/%d", ran, planned),
			fmt.Sprintf("%d", counts["quar"]),
			fmt.Sprintf("%d", counts[string(lifetime.CauseWearout)]),
			fmt.Sprintf("%d", counts[string(lifetime.CauseFaults)]),
			fmt.Sprintf("%d", counts[string(lifetime.CauseAlive)]),
			fmt.Sprintf("%.1f", deadFrac),
			fmt.Sprintf("%.1f", qs[0]),
			fmt.Sprintf("%.1f", qs[1]),
			fmt.Sprintf("%.1f", qs[2]),
			fmt.Sprintf("%.1f ± %.1f", mean, half),
			fmt.Sprintf("%.2f", lossPPM),
		})

		// Survival curve over the whole observed population: alive devices
		// are censored survivors, so the curve floors at their fraction
		// instead of dropping to zero. The SVG gets the step-expanded form
		// (horizontal runs, vertical drops); the table the raw points.
		if x, y := metrics.Survival(deaths, len(lives)); x != nil {
			curves = append(curves, Series{Label: scheme, X: x, Y: y})
			sx, sy := plot.Steps(x, y, 1)
			stepped = append(stepped, Series{Label: scheme, X: sx, Y: sy})
		}
	}

	title := "Fleet survival: fraction of population alive vs normalized lifetime (%)"
	g := SVG{Name: "fleet-survival", Title: title,
		XName: "lifetime %", YName: "surviving fraction", Series: stepped,
	}
	tables := []Table{sum}
	if len(quar.Rows) > 0 {
		tables = append(tables, quar)
	}
	if len(curves) > 0 {
		raw := SVG{Name: g.Name, Title: title, XName: g.XName, YName: g.YName, Series: curves}
		tables = append(tables, figTable(raw, "%.3f"))
		return tables, []SVG{g}
	}
	return tables, nil
}
