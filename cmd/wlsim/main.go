// Command wlsim regenerates the paper's tables and figures from the
// command line.
//
// Usage:
//
//	wlsim [-scale tiny|small|medium|large] [-seed N] [-j N] <experiment>
//
// where <experiment> is any name in the package registry (`wlsim list`
// prints the catalogue), or `all` for every experiment marked for it.
//
// Sweeps fan out across -j worker goroutines (default: all cores). Output
// tables are byte-identical for every -j value: jobs are independent
// simulations, collected in submission order, each seeded from
// (seed, job index). -shards N additionally decomposes every single
// lifetime run across N per-bank shards where the scheme allows it; a
// fixed -shards value is equally deterministic, but sharded and serial
// tables differ (different simulated geometry) and are cached separately.
//
// SIGINT/SIGTERM cancel the running sweep: completed points are flushed as
// a partial table and the process exits with status 130.
//
// Each experiment prints the same rows/series the paper reports, on a
// scaled-down device (see EXPERIMENTS.md for the scaling rules and the
// paper-vs-measured record). All per-experiment behavior — dispatch, job
// planning, cache freshness, rendering — comes from the nvmwear experiment
// registry through nvmwear.RunAt, RunAll and List; this file only parses
// flags and wires signals, stderr and the pprof profiles.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nvmwear"
	"nvmwear/internal/serve"
	"nvmwear/internal/store"
)

// runServe runs the long-lived experiment service until it drains — via
// SIGINT/SIGTERM or POST /quitquitquit — then exits 0. In-flight sweep
// jobs checkpoint to the -cache store during the drain (forcibly canceled
// after -drain-timeout), so a restarted server resumes runs warm.
func runServe(cfg serve.Config) int {
	s, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := s.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	go func() {
		<-ctx.Done()
		s.Drain("signal")
	}()
	s.Wait()
	return 0
}

func main() {
	scaleName := flag.String("scale", "medium", "experiment scale: tiny|small|medium|large")
	seed := flag.Uint64("seed", 42, "experiment seed")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "parallel sweep jobs (0 = all cores)")
	shards := flag.Int("shards", 1, "per-bank shards per lifetime run (0 = auto: min(cores, 32))")
	quiet := flag.Bool("q", false, "suppress per-job progress on stderr")
	format := flag.String("format", "text", "output format: text|csv|json")
	normalized := flag.Float64("normalized", 0.85, "project: measured normalized lifetime")
	endurance := flag.Float64("endurance", 1e5, "project: cell endurance Wmax")
	capacityGB := flag.Uint64("capacity", 64, "project: device capacity in GB")
	bandwidthGB := flag.Float64("bandwidth", 1, "project: write traffic in GB/s")
	svgDir := flag.String("svg", "", "also write each figure as an SVG into this directory")
	sweepScheme := flag.String("scheme", "pcms", "sweep: scheme to sweep")
	wearModel := flag.String("wear", "", "wear model for lifetime runs: "+strings.Join(nvmwear.WearModels(), "|")+" (default: historical behavior)")
	devices := flag.String("devices", "", "fleet: devices per scheme: N, scheme=N overrides, or both (\"32,rbsg=64\"; default 16)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a post-run heap profile to this file")
	cacheDir := flag.String("cache", "", "crash-safe result cache directory (enables checkpoint/resume)")
	cacheClear := flag.Bool("cache-clear", false, "empty the -cache store before running")
	force := flag.Bool("force", false, "all: re-run experiments even when fully cached")
	timeout := flag.Duration("timeout", 0, "cancel the run after this duration (partial results flushed, exit 130)")
	addr := flag.String("addr", "127.0.0.1:8377", "serve: listen address")
	queueDepth := flag.Int("queue", 16, "serve: bounded run-queue depth (full queue answers 503)")
	serveWorkers := flag.Int("serve-workers", 2, "serve: concurrent experiment runs")
	maxRunJobs := flag.Int("max-run-jobs", 0, "reject runs planning more sweep jobs than this (0 = unlimited; CLI and serve)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "serve: in-flight grace period on shutdown before force-cancel")
	flag.Usage = usage
	flag.Parse()
	if *cacheClear && *cacheDir == "" {
		fmt.Fprintln(os.Stderr, "-cache-clear requires -cache <dir>")
		os.Exit(2)
	}
	if flag.NArg() != 1 {
		// `-cache-clear -cache DIR` with no experiment is a valid
		// maintenance invocation: empty the store and stop.
		if *cacheClear && flag.NArg() == 0 {
			if err := store.Clear(*cacheDir); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			return
		}
		usage()
		os.Exit(2)
	}
	sc, err := nvmwear.ScaleByName(*scaleName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sc.Seed = *seed
	sc.Parallelism = *workers
	// -shards: the default is 1 — machine-independent, so the default
	// output is reproducible everywhere. 0 opts into machine-sized shards.
	switch {
	case *shards == 0:
		sc.Shards = runtime.GOMAXPROCS(0)
		if sc.Shards > nvmwear.MaxShards {
			sc.Shards = nvmwear.MaxShards
		}
	case *shards > nvmwear.MaxShards:
		sc.Shards = nvmwear.MaxShards
	default:
		sc.Shards = *shards
	}
	// -wear, -scheme and -format are validated up front — both the CLI and
	// serve paths inherit the checked names, so a typo fails fast instead
	// of erroring per sweep job or after the whole sweep.
	if err := errors.Join(nvmwear.CheckWearModel(*wearModel), nvmwear.CheckScheme(*sweepScheme),
		nvmwear.CheckFormat(*format)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sc.WearModel = *wearModel
	// Diagnostics (shard fallbacks, staleness, skip notices) go to stderr so
	// stdout stays machine-readable; clear any live progress counter first.
	sc.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "\r\033[K"+format+"\n", args...)
	}
	// `wlsim serve` hands the whole registry to a long-lived HTTP service;
	// it opens (and arbitrates) its own result store, so it dispatches
	// before the CLI's cache handling below.
	if flag.Arg(0) == "serve" {
		os.Exit(runServe(serve.Config{
			Addr:         *addr,
			Scale:        *scaleName,
			Seed:         *seed,
			Parallelism:  *workers,
			Shards:       sc.Shards,
			Wear:         *wearModel,
			CacheDir:     *cacheDir,
			Format:       *format,
			QueueDepth:   *queueDepth,
			Workers:      *serveWorkers,
			MaxRunJobs:   *maxRunJobs,
			RunTimeout:   *timeout,
			DrainTimeout: *drainTimeout,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		}))
	}
	sc.SweepScheme = nvmwear.SchemeKind(*sweepScheme)
	base, overrides, err := parseDevices(*devices)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sc.FleetDevices = base
	sc.FleetDeviceOverrides = overrides
	// WLSIM_FLEET_POISON=N poisons fleet device job N (1-based): the job
	// panics mid-run so integration tests can prove quarantine isolation
	// end to end. Unset or 0 poisons nothing.
	if n, _ := strconv.Atoi(os.Getenv("WLSIM_FLEET_POISON")); n > 0 {
		sc.FleetPoison = n
	}
	sc.Project = nvmwear.ProjectParams{
		Normalized:    *normalized,
		Endurance:     uint64(*endurance),
		CapacityGB:    *capacityGB,
		BandwidthGBps: *bandwidthGB,
	}

	// -cache: open (or create) the crash-safe result store. Completed
	// sweep jobs persist across process lifetimes, so an interrupted or
	// killed run resumes with only the missing jobs re-executed. The
	// store's lockfile serializes whole processes; a lock left by a dead
	// process (SIGKILL) is reclaimed automatically.
	if *cacheDir != "" {
		if *cacheClear {
			if err := store.Clear(*cacheDir); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		st, err := store.Open(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		st.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
		sc.Cache = st
	}
	closeCache := func() {
		if sc.Cache != nil {
			sc.Cache.Close()
			sc.Cache = nil
		}
	}
	defer closeCache()

	// SIGINT/SIGTERM cancel the sweep through the scale's context; the
	// completed prefix of the running figure is flushed as a partial table
	// before exiting nonzero.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	// -timeout bounds the whole run with the same cancellation path as
	// SIGINT: the sweep stops, completed points flush as a partial table,
	// and the process exits 130.
	if *timeout > 0 {
		var cancelTimeout context.CancelFunc
		ctx, cancelTimeout = context.WithTimeoutCause(ctx, *timeout,
			fmt.Errorf("run timed out after %v", *timeout))
		defer cancelTimeout()
	}
	sc.Context = ctx

	sinks := nvmwear.RunSinks{Out: os.Stdout, Format: *format, SVGDir: *svgDir}
	prof := &profiles{cpu: *cpuProfile, mem: *memProfile}
	if err := prof.start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		closeCache()
		os.Exit(1)
	}
	stopProfiles := func() {
		if err := prof.stop(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
	if !*quiet {
		// Per-job progress on stderr: one carriage-returned counter line
		// per sweep, cleared when the sweep completes; plus a notice as
		// each series of a figure completes (pipeline rendering).
		sinks.Progress = func(name string, done, total int) {
			fmt.Fprintf(os.Stderr, "\r%s: job %d/%d", name, done, total)
			if done == total {
				fmt.Fprint(os.Stderr, "\r\033[K")
			}
		}
		sinks.SeriesDone = func(fig string, s nvmwear.Series) {
			fmt.Fprintf(os.Stderr, "\r\033[K%s: series %q complete\n", fig, s.Label)
		}
	}
	// WLSIM_JOB_DELAY_MS inserts a pause after every completed sweep job —
	// a test hook that widens the window for signal-delivery integration
	// tests without slowing real runs.
	if ms, _ := strconv.Atoi(os.Getenv("WLSIM_JOB_DELAY_MS")); ms > 0 {
		inner := sinks.Progress
		sinks.Progress = func(name string, done, total int) {
			time.Sleep(time.Duration(ms) * time.Millisecond)
			if inner != nil {
				inner(name, done, total)
			}
		}
	}

	// fail finishes a run that returned an error, after its partial results
	// (if any) were emitted: interruption exits 130, anything else 1. The
	// cache is closed first so its lock releases cleanly; completed jobs
	// were already persisted individually, so the next run resumes from
	// them.
	fail := func(err error) {
		if err == nil {
			return
		}
		fmt.Fprintf(os.Stderr, "\n%v\n", err)
		stopProfiles()
		if errors.Is(err, nvmwear.ErrInterrupted) {
			fmt.Fprintln(os.Stderr, "partial results flushed")
			closeCache()
			os.Exit(130)
		}
		closeCache()
		os.Exit(1)
	}

	switch target := flag.Arg(0); target {
	case "all":
		fail(nvmwear.RunAll(sc, sinks, *force))
	case "list":
		fail(nvmwear.List(sc, os.Stdout))
	default:
		e, ok := nvmwear.LookupExperiment(target)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", target)
			usage()
			closeCache()
			os.Exit(1)
		}
		// -max-run-jobs guards the CLI too: an oversized plan (say a fat
		// -devices override) is rejected before any job runs, with the same
		// message shape the serve admission check produces.
		if *maxRunJobs > 0 {
			if n := len(e.Plan(sc)); n > *maxRunJobs {
				fmt.Fprintln(os.Stderr, nvmwear.PlanCapError(target, n, sc.Name, *maxRunJobs))
				closeCache()
				os.Exit(2)
			}
		}
		fail(nvmwear.RunAt(target, sc, sinks))
	}
	stopProfiles()
}

// parseDevices parses the -devices flag: "" (defaults), a bare count "32"
// (uniform per-scheme population), "scheme=N" overrides, or a mix —
// "32,rbsg=64,pcms=16" plans 64 rbsg devices, 16 pcms, 32 of everything
// else. Scheme names must exist in the catalogue.
func parseDevices(s string) (base int, overrides map[nvmwear.SchemeKind]int, err error) {
	if s == "" {
		return 0, nil, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, isOverride := strings.Cut(part, "=")
		if !isOverride {
			n, err := strconv.Atoi(part)
			if err != nil || n <= 0 {
				return 0, nil, fmt.Errorf("-devices: bad count %q (want a positive integer or scheme=N)", part)
			}
			base = n
			continue
		}
		kind := nvmwear.SchemeKind(strings.TrimSpace(name))
		if kind == "" || nvmwear.CheckScheme(string(kind)) != nil {
			return 0, nil, fmt.Errorf("-devices: unknown scheme %q (see `wlsim list`)", name)
		}
		n, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || n <= 0 {
			return 0, nil, fmt.Errorf("-devices: bad count %q for scheme %s (want a positive integer)", val, kind)
		}
		if overrides == nil {
			overrides = make(map[nvmwear.SchemeKind]int)
		}
		overrides[kind] = n
	}
	return base, overrides, nil
}

func usage() {
	fmt.Fprintf(os.Stderr, `wlsim regenerates the SAWL paper's tables and figures.

usage: wlsim [-scale tiny|small|medium|large] [-seed N] [-j N] [-shards N]
             [-q] [-cache DIR [-cache-clear]] [-force] <experiment>

Sweeps run as -j parallel jobs (default: all cores; each sweep reports
wall-clock, jobs/s and per-job p50/p99). Tables are byte-identical for
every -j value: jobs are independent, results are collected in submission
order, and job i is seeded deterministically from (seed, i). -q silences
the per-job progress counter printed to stderr. SIGINT/SIGTERM cancel the
running sweep, flush the completed points as a partial table, and exit 130.

-shards N decomposes every single lifetime run across N per-bank shards
(capped at the device's 32-bank geometry; 0 = one shard per core), using
all cores even when a sweep has few points. Every scheme in the catalogue
shards: schemes that level within independent regions (Baseline, RBSG,
NWL, SAWL) decompose exactly, while globally coupled schemes (segment
swap, start-gap, TLSR, PCM-S, MWSR) run bank-locally — one scheme
instance per bank, a documented modeling change (DESIGN.md par.15). Only
geometry misfits and unsplittable workloads (RAA attack halves, file
traces) fall back to serial with a reason on stderr. A fixed -shards
value is deterministic for every -j, but sharded tables differ from
serial ones (per-bank devices, spare pools and RNG substreams — see
DESIGN.md par.10); the default is therefore 1, and sharded results are
cached under separate keys (only for the experiments whose lifetime runs
the sharder actually touches).

-wear NAME selects the device's per-line endurance model for every
lifetime run: "uniform" (every line gets Wmax), "variation" (Gaussian
process variation, the default whenever a run draws a variation) or
"compress" (compression-aware wear: a line's effective endurance scales
inversely with how compressible its data is, so incompressible lines wear
at full rate while compressible ones last up to 4x longer). The default
("") keeps historical behavior, and its results stay cached under the
historical keys; non-default models are cached under wear-salted keys.

As each series of a figure completes, a notice goes to stderr and (with
-svg) an accumulating <fig>.partial.svg is updated, so long sweeps render
progressively; the final figure replaces the partial file. With -cache,
"wlsim all" first prints a per-figure staleness report (jobs cached vs
stale), then skips — with a "skipped <name>" notice — every experiment
whose entire job plan is already cached; -force re-runs them anyway.

-cache DIR memoizes completed sweep jobs in a crash-safe disk store:
re-running the same experiment re-executes only the missing jobs, so an
interrupted (even SIGKILLed) sweep resumes where it stopped and emits the
identical table. Corrupt entries are detected, quarantined and recomputed,
never trusted. -cache-clear empties the store first (alone, with no
experiment, it just empties and exits). Each sweep's summary line reports
cache hits/misses/recomputed.

-cpuprofile FILE / -memprofile FILE write pprof profiles for `+"`go tool pprof`"+`:
the CPU profile covers the whole run, the heap profile is a post-GC snapshot
taken after the last experiment finishes.

The fleet experiment runs a population Monte Carlo over the complete
scheme catalogue: -devices N simulated devices per scheme (default 16),
each drawing endurance, variation, fault rate and workload from its own
seed substream; -devices scheme=N resizes individual schemes (mixable:
"32,rbsg=64,pcms=16"). Known-expensive devices (fault-heavy, then
high-variation) dispatch first so the sweep's tail is short. A device job
that fails or panics is quarantined — reported with its cause in a table —
while the rest of the population completes; with -cache, every finished
device checkpoints individually, so a killed fleet sweep resumes warm.
-max-run-jobs M rejects any run (CLI or serve) planning more than M jobs
before the first job executes.

experiments (from the package registry; * = part of "all"):
`)
	for _, e := range nvmwear.Experiments() {
		star := " "
		if e.InAll {
			star = "*"
		}
		fmt.Fprintf(os.Stderr, "  %s %-9s %s\n", star, e.Name, e.Description)
	}
	fmt.Fprintf(os.Stderr, `    %-9s describe every registered experiment (jobs, cache freshness)
    %-9s every experiment marked * above (cached ones skip; -force re-runs)
    %-9s expose the registry as a long-lived HTTP service on -addr:
              POST /runs queues experiments (bounded queue; full = 503),
              GET /runs/{id}/events streams progress (SSE), /healthz //readyz
              report state, /quitquitquit drains gracefully (in-flight jobs
              checkpoint to -cache; force-cancel after -drain-timeout)
`, "list", "all", "serve")

	fmt.Fprintf(os.Stderr, `
-timeout D cancels a run after duration D through the same path as SIGINT:
completed points flush as a partial table and the process exits 130 (with
-cache, a later run resumes from the flushed jobs).
`)
}
