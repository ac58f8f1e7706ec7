package nvmwear

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"nvmwear/internal/exec"
	"nvmwear/internal/metrics"
	"nvmwear/internal/nvm"
	"nvmwear/internal/rng"
	"nvmwear/internal/store"
)

// wearGini computes the Gini coefficient of the device's per-line wear.
func wearGini(dev *nvm.Device) float64 {
	return metrics.GiniUint32(dev.WearCounts())
}

// Series is one labeled curve of an experiment — the unit every figure
// runner returns. X holds the independent variable (number of regions,
// request count, benchmark index), Y the measured value.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Append adds a point.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Table is a rendered experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string

	// fromSeries marks a table that is the text rendering of an SVG's
	// series (figTable): csv/json output emits the series stream and
	// drops the redundant table.
	fromSeries bool
}

// Render formats the table as aligned ASCII text.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// SeriesTable renders a set of series sharing an X axis as one table.
func SeriesTable(title, xName string, series []Series, fmtY string) Table {
	tab := Table{Title: title, Columns: append([]string{xName}, labels(series)...)}
	for _, x := range unionX(series) {
		row := []string{trimFloat(x)}
		for _, s := range series {
			cell := ""
			for i, sx := range s.X {
				if sx == x {
					cell = fmt.Sprintf(fmtY, s.Y[i])
					break
				}
			}
			row = append(row, cell)
		}
		tab.Rows = append(tab.Rows, row)
	}
	return tab
}

func labels(series []Series) []string {
	out := make([]string, len(series))
	for i, s := range series {
		out[i] = s.Label
	}
	return out
}

func trimFloat(x float64) string {
	if x == float64(int64(x)) {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%g", x)
}

// Scale sizes an experiment. The paper simulates 64 GB devices with
// 10^5-10^6 endurance for months of traffic; these presets shrink the
// device and endurance proportionally so every figure regenerates in
// seconds to minutes while preserving the paper's qualitative shape
// (DESIGN.md, substitution table). Lifetime experiments keep the paper's
// governing ratio — cell endurance over the writes between two remaps of a
// hot line — in the regime where the paper's crossovers appear.
type Scale struct {
	Name string

	// Attack experiments (Figs 3, 4, 5, 15): device lines and endurance
	// for BPA lifetime runs.
	AttackLines     uint64
	AttackEndurance uint32

	// SPEC lifetime experiment (Fig 16).
	SpecLines     uint64
	SpecEndurance uint32
	// SpecPeriod is the swapping period for Fig 16 runs. The paper uses
	// 128 with Wmax 1e5; scaled endurance needs a proportionally shorter
	// period to preserve endurance/remap-interval.
	SpecPeriod uint64

	// TraceLines sizes the logical space for fixed-length runs (hit-rate
	// and IPC figures), which need realistic footprints but no wear-out.
	TraceLines uint64
	// Requests drives fixed-length runs.
	Requests uint64

	// CMTEntries for tiered schemes.
	CMTEntries int
	// SpareFrac: spares = lines/SpareFrac.
	SpareFrac uint64
	Seed      uint64

	// Parallelism bounds the number of sweep jobs running concurrently
	// (cmd/wlsim's -j flag). 0 selects runtime.GOMAXPROCS(0). Results are
	// identical for every value: jobs are independent, returned in
	// submission order, and seeded from (Seed, job index) — see
	// internal/exec.
	Parallelism int

	// Progress, when non-nil, is called after each completed sweep job
	// with the finished and total job counts. Calls are serialized by the
	// pool; cmd/wlsim wires this to stderr.
	Progress func(done, total int)

	// Context, when non-nil, cancels in-flight sweeps: unstarted jobs are
	// skipped and figure runners return the completed prefix of their
	// series together with an error wrapping ErrInterrupted. cmd/wlsim
	// wires SIGINT/SIGTERM to this so an interrupted sweep still flushes a
	// partial table. A nil Context never cancels.
	Context context.Context

	// Drain, when non-nil, is the sweep's graceful-drain signal (soft
	// cancel): once it is done, no further jobs are dispatched, but jobs
	// already running complete and persist to Cache before the runner
	// returns the completed prefix with an error wrapping ErrInterrupted.
	// wlsim serve wires its shutdown drain here so in-flight work is
	// checkpointed rather than discarded; Context remains the hard cancel
	// that abandons it. A nil Drain never drains.
	Drain context.Context

	// Cache is the opened result store (cmd/wlsim's -cache flag). When
	// non-nil, every sweep job is keyed by a digest of (results version
	// salt, scale parameters, figure, job index, seed stream) and completed
	// results are persisted write-atomically; a later run — including one
	// resumed after SIGINT or SIGKILL — re-executes only the missing jobs.
	// Cache hits bypass the workers but still drive Progress and JobTime,
	// so telemetry stays truthful. See EXPERIMENTS.md for the
	// keying/invalidation contract.
	Cache *store.Store

	// JobTime, when non-nil, receives each completed sweep job's wall
	// time after Progress (zero for cache hits). Calls are serialized by
	// the pool; cmd/wlsim aggregates these into p50/p99 summaries.
	JobTime func(elapsed time.Duration)

	// Shards decomposes every single lifetime run into this many per-bank
	// shards (cmd/wlsim's -shards flag) where the scheme and workload allow
	// it — see PlanShards; runs that cannot shard fall back to serial with
	// a Logf notice. <= 1 keeps the serial path everywhere. Sharded results
	// are cached under shard-salted keys (cacheKey), so the store never
	// mixes sharded and serial entries.
	Shards int

	// SeriesDone, when non-nil, receives each completed series of a sweep
	// the moment its last job finishes — before the runner returns — so
	// long sweeps can stream partial figures to the formatter (pipeline
	// rendering). The runner's returned slice is unaffected. Calls are
	// serialized; fig names match the runner's cache identity.
	SeriesDone func(fig string, s Series)

	// Logf, when non-nil, receives diagnostic notices (serial-fallback
	// reasons under Shards > 1, cache staleness lines). cmd/wlsim wires it
	// to stderr so stdout stays machine-readable.
	Logf func(format string, args ...any)

	// SweepScheme selects the scheme the generic `sweep` experiment
	// explores (cmd/wlsim's -scheme flag). Empty selects PCMS. The scheme
	// is folded into the sweep's cache identity, not the cache key salt.
	SweepScheme SchemeKind

	// WearModel names the nvm.WearModel every lifetime run simulates under
	// (cmd/wlsim's -wear flag), resolved by nvm.WearModelByName. Empty keeps
	// the historical default (variation wear when the config draws a
	// variation, uniform otherwise). Non-default models salt the lifetime
	// sweeps' cache keys (cacheKey), so results under different wear physics
	// never collide in the store.
	WearModel string

	// Project parameterizes the `project` experiment's wall-clock lifetime
	// projection (cmd/wlsim's -normalized/-endurance/-capacity/-bandwidth
	// flags). Zero fields take the paper-derived defaults.
	Project ProjectParams

	// FleetDevices sizes the `fleet` experiment's per-scheme device
	// population (cmd/wlsim's -devices flag). 0 selects the default (16).
	// The population size is part of the fleet's cache identity, not the
	// cache key salt: resizing the fleet re-keys its jobs without
	// disturbing any other experiment's cache.
	FleetDevices int

	// FleetDeviceOverrides resizes individual schemes' fleet populations
	// (cmd/wlsim's `-devices scheme=N,...` form); schemes not listed keep
	// FleetDevices. Like FleetDevices it is part of the fleet's cache
	// identity via fleetFig, so a ragged fleet never collides with a
	// uniform one.
	FleetDeviceOverrides map[SchemeKind]int

	// FleetPoison, when > 0, makes fleet device job FleetPoison-1 panic
	// mid-draw — the failure-isolation test hook behind WLSIM_FLEET_POISON.
	// Deliberately excluded from cache identity: a poisoned job never
	// produces a result, so it can never poison the cache either.
	FleetPoison int

	// plan, when non-nil, switches runJobs from dispatching to recording
	// (Experiment.Plan).
	plan *[]JobSpec
}

// ProjectParams sizes the `project` experiment: the full-scale device whose
// wall-clock lifetime is projected from a measured normalized fraction.
type ProjectParams struct {
	Normalized    float64 // measured fraction of ideal (default 0.85)
	Endurance     uint64  // cell endurance Wmax (default 1e5)
	CapacityGB    uint64  // device capacity in GB (default 64)
	BandwidthGBps float64 // write traffic in GB/s (default 1)
}

// withDefaults fills zero fields with the paper's reference point.
func (p ProjectParams) withDefaults() ProjectParams {
	if p.Normalized == 0 {
		p.Normalized = 0.85
	}
	if p.Endurance == 0 {
		p.Endurance = 1e5
	}
	if p.CapacityGB == 0 {
		p.CapacityGB = 64
	}
	if p.BandwidthGBps == 0 {
		p.BandwidthGBps = 1
	}
	return p
}

// resultsVersion salts every cache key with the simulation code version.
// Bump it whenever a change alters any experiment's numeric output (new
// RNG draws, changed defaults, fixed simulation bugs): entries under the
// old salt simply stop matching and age out, so a stale cache can never
// leak pre-change results into post-change tables.
const resultsVersion = "wlsim-results-v2"

// cacheKey builds the canonical cache key of one sweep job: the results
// version salt, every Scale parameter that can influence a result, the
// figure identity (which must itself encode any non-Scale sweep
// parameters), the job index, and the job's derived seed stream. The
// store content-addresses the string, so readability costs nothing.
//
// sharded declares whether the sweep's lifetime runs go through the
// intra-run sharder — every lifetime sweep does (figure sweeps, sweep,
// fault, attack, fleet). Only those sweeps salt their keys with the shard
// layout: the layout changes the simulated geometry (per-bank devices and
// RNG substreams), so sharded results live under their own keys, while
// runs the sharder never touches (the fixed-length trace figures) keep the
// same results — and the same keys — at every -shards value. The sweep
// states it once, in its runJobs call; Experiment.Plan records it.
func (sc Scale) cacheKey(fig string, sharded bool, i int) string {
	key := fmt.Sprintf(
		"%s|fig=%s|job=%d|seed=%d|stream=%#x|attack=%d/%d|spec=%d/%d/%d|trace=%d|req=%d|cmt=%d|spare=%d",
		resultsVersion, fig, i, sc.Seed, rng.SeedStream(sc.Seed, uint64(i)),
		sc.AttackLines, sc.AttackEndurance,
		sc.SpecLines, sc.SpecEndurance, sc.SpecPeriod,
		sc.TraceLines, sc.Requests, sc.CMTEntries, sc.SpareFrac)
	// Serial runs keep the historical unsalted key: existing caches stay
	// warm across this refactor.
	if sharded && sc.Shards > 1 {
		key += fmt.Sprintf("|shards=%d", sc.Shards)
	}
	// Only lifetime sweeps feel the wear model (fixed-length trace figures
	// never wear lines out), and the default stays unsalted so existing
	// caches remain warm; a -wear override re-keys exactly the runs whose
	// physics it changes.
	if sharded && sc.WearModel != "" {
		key += "|wear=" + sc.WearModel
	}
	return key
}

// ScaleTiny is the smallest preset: every figure in seconds, meant for
// smoke tests and CI (`wlsim -scale tiny`), not for paper-shaped curves.
// The root package's testdata/ goldens are rendered at this scale with
// Seed 7, so its parameters are pinned by the golden regression tests.
var ScaleTiny = Scale{
	Name:            "tiny",
	AttackLines:     1 << 10,
	AttackEndurance: 800,
	SpecLines:       1 << 10,
	SpecEndurance:   600,
	SpecPeriod:      8,
	TraceLines:      1 << 18,
	Requests:        1 << 17,
	CMTEntries:      256,
	SpareFrac:       32,
	Seed:            7,
}

// ScaleSmall regenerates every figure in seconds to a few minutes — the
// default for `go test -bench`.
var ScaleSmall = Scale{
	Name:            "small",
	AttackLines:     1 << 12,
	AttackEndurance: 2500,
	SpecLines:       1 << 12,
	SpecEndurance:   2500,
	SpecPeriod:      8,
	TraceLines:      1 << 22,
	Requests:        1 << 22,
	CMTEntries:      1 << 12,
	SpareFrac:       32,
	Seed:            42,
}

// ScaleMedium is the cmd/wlsim default: minutes per figure, smoother
// curves.
var ScaleMedium = Scale{
	Name:            "medium",
	AttackLines:     1 << 14,
	AttackEndurance: 5000,
	SpecLines:       1 << 14,
	SpecEndurance:   5000,
	SpecPeriod:      16,
	TraceLines:      1 << 23,
	Requests:        1 << 24,
	CMTEntries:      1 << 13,
	SpareFrac:       32,
	Seed:            42,
}

// ScaleLarge approaches the paper's region-count ranges (tens of minutes
// to hours per figure).
var ScaleLarge = Scale{
	Name:            "large",
	AttackLines:     1 << 17,
	AttackEndurance: 20000,
	SpecLines:       1 << 16,
	SpecEndurance:   20000,
	SpecPeriod:      32,
	TraceLines:      1 << 25,
	Requests:        1 << 26,
	CMTEntries:      1 << 15,
	SpareFrac:       32,
	Seed:            42,
}

// ScaleByName resolves a preset.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "tiny":
		return ScaleTiny, nil
	case "small":
		return ScaleSmall, nil
	case "medium":
		return ScaleMedium, nil
	case "large":
		return ScaleLarge, nil
	default:
		return Scale{}, fmt.Errorf("nvmwear: unknown scale %q (tiny|small|medium|large)", name)
	}
}

// attackSpares returns the spare-line count for attack devices.
func (sc Scale) attackSpares() uint64 { return sc.AttackLines / sc.SpareFrac }

// specSpares returns the spare-line count for SPEC lifetime devices.
func (sc Scale) specSpares() uint64 { return sc.SpecLines / sc.SpareFrac }

// lowAttackEndurance is the scaled "10^5 panel" endurance for attack
// figures (one fifth of the high panel, keeping small runs meaningful).
func (sc Scale) lowAttackEndurance() uint32 {
	e := sc.AttackEndurance / 5
	if e < 100 {
		e = 100
	}
	return e
}

// attackEndurances are the two endurance panels of the attack figures.
func (sc Scale) attackEndurances() []uint32 {
	return []uint32{sc.AttackEndurance, sc.lowAttackEndurance()}
}

// traceLines returns the logical space for fixed-length trace experiments.
func (sc Scale) traceLines() uint64 {
	if sc.TraceLines != 0 {
		return sc.TraceLines
	}
	return sc.SpecLines
}

// ErrInterrupted marks a sweep cut short by Scale.Context (SIGINT in
// cmd/wlsim). Runners that return it also return every series point whose
// job completed, so callers can flush a partial table before exiting.
var ErrInterrupted = errors.New("nvmwear: sweep interrupted")

// jobOpts are runJobs' optional per-sweep refinements; the zero value runs
// a plain sweep.
type jobOpts[T any] struct {
	// cost is a longest-job-first hint (exec.Pool.Cost): jobs dispatch in
	// descending cost order while results keep submission order.
	cost func(i int) float64
	// onJob observes each job's result as it lands (cache hits included, in
	// completion order), so runners can stream series to Scale.SeriesDone
	// while the sweep is still running. Calls are serialized by the pool.
	onJob func(i int, v T)
	// quarantine isolates per-job failures (exec.Pool.Quarantine): a job
	// that errors or panics is reported here, never fires onJob, and leaves
	// a zero slot instead of aborting the sweep — the fleet experiment's
	// poisoned-device containment.
	quarantine func(i int, err error)
}

// runJobs fans n experiment jobs out on the scale's worker pool and returns
// their results in submission order. Every sweep in the package runs
// through it. fig is the sweep's cache identity (see cacheKey): it must be
// unique per figure and must encode every sweep parameter that is not
// already part of Scale. If the scale's context is cancelled or drained
// mid-sweep, the longest completed prefix of results is returned together
// with an error wrapping ErrInterrupted that counts every completed job;
// any other job error is returned as-is with the earliest-dispatched
// failing job winning (deterministic regardless of scheduling).
//
// Seeding convention: lifetime sweeps pass the job's derived seed into the
// workload and scheme they build (lifetimeSweep does so for every point),
// giving every point an independent random stream regardless of worker
// count. Fixed-length trace figures (12-14, 17) instead keep sc.Seed so all
// panels of one figure observe the identical request stream — those
// figures compare configurations on the same trace. sharded declares
// whether the sweep's lifetime runs go through the intra-run sharder,
// which decides the cache keys' shard salting (cacheKey).
//
// runJobs is also the one statement of each experiment's job list: under
// Experiment.Plan it records its n jobs and returns no results and no
// error, so a Run that plans several sweeps goes on to plan them all.
func runJobs[T any](sc Scale, fig string, sharded bool, n int, o jobOpts[T], fn func(i int, seed uint64) (T, error)) ([]T, error) {
	if sc.plan != nil {
		for i := 0; i < n; i++ {
			*sc.plan = append(*sc.plan, JobSpec{Fig: fig, Index: i, Sharded: sharded})
		}
		return nil, nil
	}
	p := &exec.Pool{
		Workers: sc.Parallelism, BaseSeed: sc.Seed,
		Context: sc.Context, SoftContext: sc.Drain,
		Cost: o.cost, Quarantine: o.quarantine,
	}
	if sc.Progress != nil || sc.JobTime != nil {
		p.OnDone = func(done, total int, elapsed time.Duration) {
			if sc.Progress != nil {
				sc.Progress(done, total)
			}
			if sc.JobTime != nil {
				sc.JobTime(elapsed)
			}
		}
	}
	if o.onJob != nil {
		p.OnJob = func(i int, v any, _ time.Duration) {
			if tv, ok := v.(T); ok {
				o.onJob(i, tv)
			}
		}
	}
	if sc.Cache != nil && fig != "" {
		p.Store = sc.Cache
		p.Key = func(i int) string { return sc.cacheKey(fig, sharded, i) }
	}
	out, err := exec.Map(p, n, fn)
	var ce *exec.CanceledError
	if errors.As(err, &ce) {
		prefix, done := 0, 0
		for i, d := range ce.Done {
			if d {
				done++
				if prefix == i {
					prefix++
				}
			}
		}
		return out[:prefix], fmt.Errorf("%w after %d/%d jobs (%v)", ErrInterrupted, done, n, ce.Err)
	}
	return out, err
}
