package nvmwear

import (
	"context"
	"fmt"
	"sort"
)

// This file is the experiment registry — the single declaration point the
// paper's evaluation catalogue (Figs 3-5, 12-17, fault, attack, sweep,
// overhead, table1, project) hangs off. Every runner registers one
// Experiment from its file's init; cmd/wlsim dispatch, `wlsim list`, the
// cache staleness planner (CacheFreshness) and the whole-experiment skip in
// `wlsim all` are all derived from the same registration, so adding an
// experiment is one Register call and nothing else to keep in sync.

// JobSpec identifies one planned sweep job: exactly the (fig, sharded, i)
// triple runJobs passes to cacheKey. Experiment.Plan returns the full job
// list so callers can probe the result store without executing anything.
type JobSpec struct {
	Fig     string // the sweep's cache identity (cacheKey fig)
	Index   int    // job index within the sweep
	Sharded bool   // the sweep's lifetime runs go through the intra-run sharder
}

// Result is an experiment's opaque payload: whatever its Run produced,
// passed to the same experiment's Render. The concrete type is private to
// each experiment's registration.
type Result struct {
	Value any
}

// SVG is one renderable figure of an experiment: a labeled series bundle
// plus the axis metadata the exporters need (text table, CSV/JSON stream,
// SVG file — see RunAt and SVG.WriteSVG).
type SVG struct {
	Name   string // file stem for -svg output ("fig3", "fault-loss")
	Title  string
	XName  string
	YName  string
	LogX   bool
	Series []Series
}

// Experiment declares one catalogue entry. Run must tolerate interruption
// (return the completed prefix of its payload alongside an error wrapping
// ErrInterrupted) and Render must tolerate such partial payloads — the
// contract that lets RunAt flush partial tables on SIGINT.
type Experiment struct {
	Name        string
	Description string
	Figure      string // paper reference ("Fig 3", "Sec 4.5", "-")
	Order       int    // catalogue position (Experiments sorts by it)
	InAll       bool   // part of `wlsim all`
	// Run executes the experiment at the scale. Plan derives the job list
	// by calling Run with dispatch switched to recording, so Run must send
	// every sweep job through runJobs, and no sweep's size may depend on an
	// earlier sweep's results.
	Run    func(sc Scale) (Result, error)
	Render func(r Result) ([]Table, []SVG)
}

// Plan returns the exact job list Run dispatches at the scale — same fig
// identities, counts, order and shard salting — without executing any of
// it: Run runs with every runJobs call recording its jobs instead of
// dispatching them. An experiment without sweep jobs (table1, overhead,
// project) plans none. TestExperimentPlanMatchesDispatch pins the recorded
// plan to the real dispatch for every registered experiment.
func (e *Experiment) Plan(sc Scale) []JobSpec {
	var plan []JobSpec
	sc.Progress, sc.JobTime, sc.SeriesDone, sc.Logf = nil, nil, nil, nil
	sc.Cache, sc.Drain = nil, nil
	// An already-cancelled context is the safety net for a Run that reaches
	// exec.Map around runJobs: the pool skips every job, so none runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc.Context = ctx
	sc.plan = &plan
	e.Run(sc)
	return plan
}

var registry = map[string]*Experiment{}

// Register adds an experiment to the package catalogue. It is called from
// init functions next to each runner; malformed or duplicate registrations
// are programmer errors and panic.
func Register(e Experiment) {
	switch {
	case e.Name == "":
		panic("nvmwear: Register: experiment without a name")
	case e.Run == nil || e.Render == nil:
		panic(fmt.Sprintf("nvmwear: Register(%q): Run and Render are mandatory", e.Name))
	}
	if _, dup := registry[e.Name]; dup {
		panic(fmt.Sprintf("nvmwear: Register(%q): duplicate experiment", e.Name))
	}
	registry[e.Name] = &e
}

// Experiments returns the registered catalogue in Order. The slice is
// freshly allocated; the entries are shared.
func Experiments() []*Experiment {
	out := make([]*Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Order != out[j].Order {
			return out[i].Order < out[j].Order
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// LookupExperiment resolves a registered experiment by name.
func LookupExperiment(name string) (*Experiment, bool) {
	e, ok := registry[name]
	return e, ok
}

// PlanCapError is the rejection for a run whose planned job count exceeds
// a -max-run-jobs budget. The serve admission check and the CLI's pre-run
// validation share it so both surfaces reject with the same message shape.
func PlanCapError(experiment string, jobs int, scale string, capJobs int) error {
	return fmt.Errorf("experiment %q plans %d jobs at scale %s, over the %d-job cap (-max-run-jobs)",
		experiment, jobs, scale, capJobs)
}

// figTable renders an SVG's series as its text-table twin, marked so the
// machine-readable formats (csv, json) emit the series stream instead of
// a redundant table.
func figTable(g SVG, fmtY string) Table {
	t := SeriesTable(g.Title, g.XName, g.Series, fmtY)
	t.fromSeries = true
	return t
}

// renderSeries builds the Render of a single-figure series experiment:
// one SVG bundle and its text-table twin. The payload must be []Series
// (possibly a completed prefix of an interrupted sweep).
func renderSeries(name, title, xName string, logX bool) func(Result) ([]Table, []SVG) {
	return func(r Result) ([]Table, []SVG) {
		series, _ := r.Value.([]Series)
		g := SVG{Name: name, Title: title, XName: xName, YName: "value", LogX: logX, Series: series}
		return []Table{figTable(g, "%.2f")}, []SVG{g}
	}
}

// relabelBenchRows replaces a SPEC table's numeric benchmark indices with
// benchmark names; the final row is the harmonic mean (the paper's
// "Hmean" bar in Figs 16 and 17).
func relabelBenchRows(tab *Table) {
	names := SpecBenchmarks()
	for i := range tab.Rows {
		if i < len(names) {
			tab.Rows[i][0] = names[i]
		} else {
			tab.Rows[i][0] = "Hmean"
		}
	}
}
