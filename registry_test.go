package nvmwear

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nvmwear/internal/exec"
)

// This file pins the experiment registry's core invariant: an Experiment's
// Plan, recorded from its Run, predicts exactly the jobs that Run
// dispatches — same fig identities, same counts, same cache-key salting —
// for every entry in the catalogue. Everything built on the registry (CLI
// dispatch, `wlsim list`, the staleness report, the whole-experiment skip
// in `wlsim all`) rests on that prediction being exact.

// TestRegistryCatalogue pins the catalogue's shape: the expected names are
// registered, Experiments() is ordered, and the `all` membership matches
// the historical `wlsim all` list.
func TestRegistryCatalogue(t *testing.T) {
	exps := Experiments()
	if len(exps) == 0 {
		t.Fatal("empty registry")
	}
	for i := 1; i < len(exps); i++ {
		if exps[i-1].Order > exps[i].Order {
			t.Errorf("catalogue out of order: %s (%d) before %s (%d)",
				exps[i-1].Name, exps[i-1].Order, exps[i].Name, exps[i].Order)
		}
	}
	inAll := map[string]bool{
		"table1": true, "fig3": true, "fig4": true, "fig5": true,
		"fig12": true, "fig13": true, "fig14": true, "fig15": true,
		"fig16": true, "fig17": true, "overhead": true,
		"fault": false, "fleet": false, "attack": false, "sweep": false,
		"project": false,
	}
	for name, want := range inAll {
		e, ok := LookupExperiment(name)
		if !ok {
			t.Errorf("experiment %q not registered", name)
			continue
		}
		if e.InAll != want {
			t.Errorf("%s: InAll = %v, want %v", name, e.InAll, want)
		}
	}
	if len(exps) != len(inAll) {
		t.Errorf("registry holds %d experiments, want %d", len(exps), len(inAll))
	}
	if _, ok := LookupExperiment("no-such"); ok {
		t.Error("LookupExperiment resolved an unknown name")
	}
}

// TestRegisterValidates pins Register's programmer-error panics.
func TestRegisterValidates(t *testing.T) {
	run := func(Scale) (Result, error) { return Result{}, nil }
	render := func(Result) ([]Table, []SVG) { return nil, nil }
	expectPanic := func(name string, e Experiment) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(e)
	}
	expectPanic("empty name", Experiment{Run: run, Render: render})
	expectPanic("nil run", Experiment{Name: "x-incomplete", Render: render})
	expectPanic("nil render", Experiment{Name: "x-incomplete", Run: run})
	expectPanic("duplicate", Experiment{Name: "fig3", Run: run, Render: render})
}

// TestExperimentPlanMatchesDispatch runs every registered experiment at the
// tiny scale against a cold store and verifies, end to end, that (a) the
// staleness planner covers exactly the planned job list, (b) Run dispatches
// exactly len(Plan) jobs, and (c) afterwards every planned key — fig
// identity, index, and shard salting included — is present in the store.
// Planless experiments must run without dispatching a job, render, and
// report no freshness.
func TestExperimentPlanMatchesDispatch(t *testing.T) {
	for _, e := range Experiments() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			sc := withParallelism(tinyScale(), 8)
			sc.Cache = openCache(t, t.TempDir())

			// Render must tolerate the zero payload: an interrupted Run can
			// return an empty or partial Result.
			e.Render(Result{})

			var completed int
			sc.Progress = func(done, total int) { completed++ }
			plan := e.Plan(sc)
			if len(plan) == 0 {
				if f := sc.CacheFreshness(e.Name); f != nil {
					t.Fatalf("planless experiment reports freshness %+v", f)
				}
				res, err := e.Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				if completed != 0 {
					t.Fatalf("Run dispatched %d jobs, Plan predicts none", completed)
				}
				if tables, _ := e.Render(res); len(tables) == 0 {
					t.Fatal("no tables rendered")
				}
				return
			}

			jobs := 0
			for _, f := range sc.CacheFreshness(e.Name) {
				jobs += f.Jobs
				if f.Cached != 0 {
					t.Fatalf("cold cache reports %d cached jobs for %s", f.Cached, f.Fig)
				}
			}
			if jobs != len(plan) {
				t.Fatalf("freshness covers %d jobs, Plan has %d", jobs, len(plan))
			}

			res, err := e.Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if completed != len(plan) {
				t.Fatalf("Run dispatched %d jobs, Plan predicts %d", completed, len(plan))
			}
			for _, f := range sc.CacheFreshness(e.Name) {
				if f.Stale() != 0 {
					t.Fatalf("%s: %d/%d planned keys missing after Run — planner and runner disagree on keys",
						f.Fig, f.Stale(), f.Jobs)
				}
			}
			if tables, _ := e.Render(res); len(tables) == 0 {
				t.Fatal("no tables rendered")
			}
		})
	}
}

// twoSweeps is an unregistered experiment of two runJobs sweeps, 2 + 3
// jobs, the second sharded, each job running job.
func twoSweeps(job func(i int, seed uint64) (int, error)) *Experiment {
	return &Experiment{
		Name: "two-sweeps",
		Run: func(sc Scale) (Result, error) {
			a, err := runJobs(sc, "sweep-a", false, 2, jobOpts[int]{}, job)
			if err != nil {
				return Result{a}, err
			}
			b, err := runJobs(sc, "sweep-b", true, 3, jobOpts[int]{}, job)
			return Result{append(a, b...)}, err
		},
		Render: func(Result) ([]Table, []SVG) { return nil, nil },
	}
}

// RunAt counts every job of a multi-sweep experiment against its
// whole plan: progress runs 1..5 once, and the summary reports 5 jobs, not
// the last sweep's 3.
func TestDriverCountsEveryJobAcrossSweeps(t *testing.T) {
	e := twoSweeps(func(i int, _ uint64) (int, error) { return i, nil })
	var dones []int
	var out bytes.Buffer
	err := runAt(e, tinyScale(), RunSinks{
		Out: &out,
		Progress: func(_ string, done, total int) {
			if total != 5 {
				t.Errorf("progress %d/%d, want a total of 5", done, total)
			}
			dones = append(dones, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 3, 4, 5}; !reflect.DeepEqual(dones, want) {
		t.Fatalf("progress ran %v, want %v", dones, want)
	}
	if !strings.Contains(out.String(), ": 5 jobs,") {
		t.Fatalf("summary does not count 5 jobs:\n%s", out.String())
	}
}

// Plan records every runJobs call in dispatch order with its shard flag,
// and runs no job: neither a runJobs job nor one a Run hands to exec.Map
// directly, around runJobs.
func TestPlanRecordsDispatchWithoutRunning(t *testing.T) {
	never := func(i int, _ uint64) (int, error) {
		t.Errorf("job %d ran under Plan", i)
		return 0, nil
	}
	want := []JobSpec{
		{"sweep-a", 0, false}, {"sweep-a", 1, false},
		{"sweep-b", 0, true}, {"sweep-b", 1, true}, {"sweep-b", 2, true},
	}
	if got := twoSweeps(never).Plan(tinyScale()); !reflect.DeepEqual(got, want) {
		t.Fatalf("plan = %+v, want %+v", got, want)
	}

	direct := &Experiment{
		Name: "direct-map",
		Run: func(sc Scale) (Result, error) {
			out, err := exec.Map(&exec.Pool{Context: sc.Context}, 4, never)
			return Result{out}, err
		},
		Render: func(Result) ([]Table, []SVG) { return nil, nil },
	}
	if got := direct.Plan(tinyScale()); len(got) != 0 {
		t.Fatalf("a Run around runJobs planned %+v, want no jobs", got)
	}
}

// TestRunAllSkipsFreshExperiments exercises the whole-experiment skip at
// the library level: a fully cached experiment is skipped with a notice and
// prints nothing; force re-runs it from cache hits, byte-identically.
func TestRunAllSkipsFreshExperiments(t *testing.T) {
	sc := tinyScale()
	st := openCache(t, t.TempDir())
	sc.Cache = st
	var logs strings.Builder
	sc.Logf = func(f string, a ...any) { fmt.Fprintf(&logs, f+"\n", a...) }
	e, ok := LookupExperiment("sweep")
	if !ok {
		t.Fatal("sweep not registered")
	}
	n := len(e.Plan(sc))

	var cold bytes.Buffer
	if err := runAll([]*Experiment{e}, sc, RunSinks{Out: &cold}, false); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(logs.String(), "skipped") {
		t.Fatalf("cold run skipped the experiment:\n%s", logs.String())
	}
	if cold.Len() == 0 {
		t.Fatal("cold run printed nothing")
	}

	logs.Reset()
	var warm bytes.Buffer
	if err := runAll([]*Experiment{e}, sc, RunSinks{Out: &warm}, false); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("skipped sweep (%d/%d cached)", n, n); !strings.Contains(logs.String(), want) {
		t.Fatalf("no %q notice:\n%s", want, logs.String())
	}
	if warm.Len() != 0 {
		t.Fatalf("skipped experiment printed output:\n%s", warm.String())
	}

	logs.Reset()
	hitsBefore := st.Stats().Hits
	var forced bytes.Buffer
	if err := runAll([]*Experiment{e}, sc, RunSinks{Out: &forced}, true); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(logs.String(), "skipped") {
		t.Fatalf("force still skipped the experiment:\n%s", logs.String())
	}
	if st.Stats().Hits == hitsBefore {
		t.Fatal("forced re-run served no cache hits")
	}
	strip := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "[") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	if strip(forced.String()) != strip(cold.String()) {
		t.Fatalf("forced tables differ from the cold run:\n--- cold ---\n%s\n--- forced ---\n%s",
			cold.String(), forced.String())
	}
}
