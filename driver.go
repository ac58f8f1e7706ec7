package nvmwear

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"nvmwear/internal/metrics"
	"nvmwear/internal/store"
)

// RunSinks carries one run's output destinations and format. Every field
// is optional; the zero value discards everything except the error RunAt
// returns.
type RunSinks struct {
	// Out receives the rendered tables and the completion summary — what
	// the CLI prints to stdout. Nil discards.
	Out io.Writer
	// Format is the tables' output format: text, csv or json ("" = text;
	// CheckFormat validates it).
	Format string
	// SVGDir, when non-empty, receives each figure as <fig>.svg plus the
	// accumulating <fig>.partial.svg while the sweep is running.
	SVGDir string
	// Progress observes every completed sweep job.
	Progress func(name string, done, total int)
	// SeriesDone observes each completed series before the partial SVG is
	// updated.
	SeriesDone func(fig string, s Series)
	// Rendered observes the run's rendered artifacts — after Render, before
	// Out/SVGDir emission, and even when the run errs (the tables then hold
	// the completed prefix of an interrupted sweep). wlsim serve captures
	// artifacts for HTTP delivery here.
	Rendered func(tables []Table, svgs []SVG)
}

// runState is the mutable state of one experiment invocation: job
// counters, per-job wall times, partial-SVG accumulation. It lives on the
// RunAt call, so concurrent runs never share it.
type runState struct {
	sc    Scale
	sinks RunSinks

	// Partial-SVG accumulation: series land here as they complete and are
	// superseded by the final figures on success.
	partialSeries map[string][]Series
	partialFiles  map[string]bool
}

// RunAt executes one registered experiment end to end at scale sc: run,
// render, emit to the sinks, summary line. An interrupted or failed sweep
// still emits the completed prefix of its tables and figures (partial
// flush) before the error is returned; the telemetry summary is printed
// only on success. `wlsim <name>` and every wlsim serve run come through
// here. All mutable run state lives on the call, so concurrent RunAt calls
// are safe provided each gets its own Scale sinks (Logf, Context, Drain)
// and RunSinks.
func RunAt(name string, sc Scale, sinks RunSinks) error {
	e, ok := LookupExperiment(name)
	if !ok {
		return fmt.Errorf("nvmwear: unknown experiment %q", name)
	}
	return runAt(e, sc, sinks)
}

func runAt(e *Experiment, sc Scale, sinks RunSinks) error {
	if sinks.Out == nil {
		sinks.Out = io.Discard
	}
	rs := &runState{sc: sc, sinks: sinks}
	return rs.run(e)
}

// logf reports a diagnostic through the scale's Logf, if it has one.
func (sc Scale) logf(format string, args ...any) {
	if sc.Logf != nil {
		sc.Logf(format, args...)
	}
}

func (rs *runState) run(e *Experiment) error {
	sc := rs.sc
	start := time.Now()
	// Jobs count across every sweep of the experiment, against its whole
	// plan; the sweep's own total covers a Run that dispatches around
	// runJobs and so plans nothing.
	jobsDone, jobsTotal := 0, len(e.Plan(sc))
	var jobTimes []float64
	sc.Progress = func(_, sweepTotal int) {
		jobsDone++
		jobsTotal = max(jobsTotal, sweepTotal)
		if rs.sinks.Progress != nil {
			rs.sinks.Progress(e.Name, jobsDone, jobsTotal)
		}
	}
	// Per-job wall times for the summary percentiles (zero for cache hits,
	// which measure the disk, not the simulator — excluded).
	sc.JobTime = func(elapsed time.Duration) {
		if elapsed > 0 {
			jobTimes = append(jobTimes, float64(elapsed)/float64(time.Millisecond))
		}
	}
	sc.SeriesDone = func(fig string, s Series) {
		if rs.sinks.SeriesDone != nil {
			rs.sinks.SeriesDone(fig, s)
		}
		rs.writePartial(fig, s)
	}
	var cacheBefore store.Stats
	if sc.Cache != nil {
		cacheBefore = sc.Cache.Stats()
	}

	res, runErr := e.Run(sc)
	// Render even on error: runners return the completed prefix of their
	// payload, so an interrupted sweep still flushes partial tables.
	tables, svgs := e.Render(res)
	if rs.sinks.Rendered != nil {
		rs.sinks.Rendered(tables, svgs)
	}
	if err := rs.emit(tables, svgs); err != nil {
		return err
	}
	if runErr != nil {
		return runErr
	}

	// The full figures were emitted: the accumulated partials are superseded.
	rs.removePartials()
	elapsed := time.Since(start)
	if jobsDone > 0 {
		cacheLine := ""
		if sc.Cache != nil {
			cacheLine = cacheSummary(sc.Cache.Stats(), cacheBefore)
		}
		fmt.Fprintf(rs.sinks.Out, "[%s completed in %v at scale %s: %d jobs, %.1f jobs/s%s, -j %d%s]\n\n",
			e.Name, elapsed.Round(time.Millisecond), sc.Name,
			jobsDone, float64(jobsDone)/elapsed.Seconds(),
			jobTimeSummary(jobTimes), effectiveWorkers(sc.Parallelism), cacheLine)
	} else {
		fmt.Fprintf(rs.sinks.Out, "[%s completed in %v at scale %s]\n\n",
			e.Name, elapsed.Round(time.Millisecond), sc.Name)
	}
	return nil
}

// emit writes an experiment's rendered output. Text mode prints every
// table (series figures print their text-table twin). csv/json emit the
// series streams via FormatSeries, and in the same format only the tables
// that carry data no series holds (Fig 13's averages, Fig 14's summary,
// table1, overhead). With the sinks' SVGDir set, every figure is also
// written as an SVG file.
func (rs *runState) emit(tables []Table, svgs []SVG) error {
	w := rs.sinks.Out
	format := rs.sinks.Format
	text := format == "" || format == "text"
	for _, t := range tables {
		if !text && t.fromSeries {
			continue // the series stream below carries this table's data
		}
		if err := formatTable(w, format, t); err != nil {
			return err
		}
	}
	if !text {
		for _, g := range svgs {
			if err := FormatSeries(w, format, g.Title, g.XName, g.Series); err != nil {
				return err
			}
		}
	}
	if rs.sinks.SVGDir != "" {
		for _, g := range svgs {
			path := filepath.Join(rs.sinks.SVGDir, g.Name+".svg")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			werr := g.WriteSVG(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return werr
			}
			rs.sc.logf("wrote %s", path)
		}
	}
	return nil
}

// writePartial updates the experiment's accumulating <fig>.partial.svg with
// one more completed series — pipeline rendering for long sweeps. Best
// effort: a failed partial render never fails the sweep.
func (rs *runState) writePartial(fig string, s Series) {
	if rs.sinks.SVGDir == "" {
		return
	}
	if rs.partialSeries == nil {
		rs.partialSeries = map[string][]Series{}
		rs.partialFiles = map[string]bool{}
	}
	rs.partialSeries[fig] = append(rs.partialSeries[fig], s)
	path := filepath.Join(rs.sinks.SVGDir, fig+".partial.svg")
	f, err := os.Create(path)
	if err != nil {
		return
	}
	if WriteSeriesSVG(f, fig+" (partial)", "x", "value", false, rs.partialSeries[fig]) == nil {
		rs.partialFiles[path] = true
	}
	f.Close()
}

func (rs *runState) removePartials() {
	for path := range rs.partialFiles {
		os.Remove(path)
	}
	rs.partialSeries, rs.partialFiles = nil, nil
}

// RunAll executes every experiment registered with InAll, in catalogue
// order, through RunAt. With a cache open it first logs the per-figure
// staleness report, then skips — with a notice — each experiment whose
// entire job plan is already cached (force re-runs them anyway); emitted
// output is exactly what running those experiments against the warm cache
// would have printed, minus the skipped tables.
func RunAll(sc Scale, sinks RunSinks, force bool) error {
	var list []*Experiment
	for _, e := range Experiments() {
		if e.InAll {
			list = append(list, e)
		}
	}
	return runAll(list, sc, sinks, force)
}

// runAll is RunAll over an explicit experiment list (tests drive it with a
// single experiment to exercise the skip path cheaply).
func runAll(list []*Experiment, sc Scale, sinks RunSinks, force bool) error {
	fresh := map[string][]FigFreshness{}
	for _, e := range list {
		fs := sc.CacheFreshness(e.Name)
		fresh[e.Name] = fs
		for _, f := range fs {
			sc.logf("cache: %-7s %3d/%3d jobs cached, %d stale",
				f.Fig, f.Cached, f.Jobs, f.Stale())
		}
	}
	for _, e := range list {
		if !force {
			jobs, cached := 0, 0
			for _, f := range fresh[e.Name] {
				jobs += f.Jobs
				cached += f.Cached
			}
			if jobs > 0 && cached == jobs {
				sc.logf("skipped %s (%d/%d cached)", e.Name, cached, jobs)
				continue
			}
		}
		if err := runAt(e, sc, sinks); err != nil {
			return err
		}
	}
	return nil
}

// List writes the registered catalogue to w as a table — name, paper
// figure, `all` membership, whether the experiment's lifetime runs shard
// under -shards, job count at scale sc, cache freshness (with a cache
// open), and description — followed by the per-scheme shard analysis, so
// users can predict which experiments and schemes decompose across banks
// before launching a large run.
func List(sc Scale, w io.Writer) error {
	tab := Table{
		Title:   "registered experiments",
		Columns: []string{"name", "figure", "all", "sharded", "jobs", "cached", "description"},
	}
	for _, e := range Experiments() {
		plan := e.Plan(sc)
		jobs, cached := "-", "-"
		if n := len(plan); n > 0 {
			jobs = fmt.Sprintf("%d", n)
			if fs := sc.CacheFreshness(e.Name); fs != nil {
				c := 0
				for _, f := range fs {
					c += f.Cached
				}
				cached = fmt.Sprintf("%d/%d", c, n)
			}
		}
		inAll, sharded := "", ""
		if e.InAll {
			inAll = "*"
		}
		for _, j := range plan {
			if j.Sharded {
				sharded = "*"
				break
			}
		}
		tab.Rows = append(tab.Rows, []string{e.Name, e.Figure, inAll, sharded, jobs, cached, e.Description})
	}
	if _, err := io.WriteString(w, tab.Render()); err != nil {
		return err
	}

	schemes := Table{
		Title:   "scheme shard analysis (-shards)",
		Columns: []string{"scheme", "partitionable", "model", "serial because"},
	}
	for _, kind := range Schemes() {
		ok, model, reason := SchemeShardability(kind)
		part := "yes"
		if !ok {
			part = "no"
		}
		schemes.Rows = append(schemes.Rows, []string{string(kind), part, model, reason})
	}
	_, err := io.WriteString(w, schemes.Render())
	return err
}

// effectiveWorkers resolves the -j value the pool actually used.
func effectiveWorkers(j int) int {
	if j <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return j
}

// jobTimeSummary renders the per-job wall-time percentiles of one sweep.
func jobTimeSummary(ms []float64) string {
	if len(ms) == 0 {
		return ""
	}
	toDur := func(q float64) time.Duration {
		return time.Duration(metrics.Quantile(ms, q) * float64(time.Millisecond)).Round(100 * time.Microsecond)
	}
	return fmt.Sprintf(", job p50 %v p99 %v", toDur(0.50), toDur(0.99))
}

// cacheSummary renders the result-store delta of one sweep: how many jobs
// were served from cache, how many missed, and how many freshly computed
// results were durably stored ("recomputed"). Quarantined counts corrupt
// entries that were detected, moved aside, and recomputed.
func cacheSummary(now, before store.Stats) string {
	s := fmt.Sprintf(", cache: %d hits, %d misses, %d recomputed",
		now.Hits-before.Hits, now.Misses-before.Misses, now.Puts-before.Puts)
	if q := now.Quarantined - before.Quarantined; q > 0 {
		s += fmt.Sprintf(", %d quarantined", q)
	}
	return s
}
