package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
)

// measureOnce runs one untraced and one traced pass of w at testSize.
func measureOnce(t *testing.T, w workload, seed uint64) (*measurement, []job) {
	t.Helper()
	jobs := w.Jobs(seed, testSize)
	m := measure(jobs, nil, true, 0)
	if len(m.untraced) != 1 || len(m.traced) != 1 {
		t.Fatalf("%s: %d untraced and %d traced passes, want 1 and 1", w.Name, len(m.untraced), len(m.traced))
	}
	return m, jobs
}

func digests(p passResult) []string {
	out := make([]string, len(p.outs))
	for i, o := range p.outs {
		out[i] = o.Digest
	}
	return out
}

func TestEveryWorkloadRunsClean(t *testing.T) {
	for _, w := range workloads {
		m, jobs := measureOnce(t, w, 1)
		if m.failed != 0 || m.attempted != 2*len(jobs) {
			t.Errorf("%s: %d of %d jobs failed: %v", w.Name, m.failed, m.attempted, m.firstErrs)
		}
	}
}

// TestSeedChangesDigests allows a few equal digests: a job whose outcome is
// symmetric in the seed (Baseline under BPA on a uniform device dies at the
// same write whichever line is hammered) legitimately repeats.
func TestSeedChangesDigests(t *testing.T) {
	for _, w := range workloads {
		a, jobs := measureOnce(t, w, 1)
		b, _ := measureOnce(t, w, 2)
		var same []string
		for i, d := range digests(a.untraced[0]) {
			if d == b.untraced[0].outs[i].Digest {
				same = append(same, jobs[i].Label)
			}
		}
		if 4*len(same) > len(jobs) {
			t.Errorf("%s: %d of %d jobs keep their digest at seeds 1 and 2: %v", w.Name, len(same), len(jobs), same)
		}
	}
}

func TestTracedMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		m, _ := measureOnce(t, w, 3)
		if got, want := digests(m.traced[0]), digests(m.untraced[0]); !slices.Equal(got, want) {
			t.Errorf("%s: traced digests %v, untraced %v", w.Name, got, want)
		}
		if len(m.traced[0].spans) == 0 {
			t.Errorf("%s: traced pass recorded no spans", w.Name)
		}
	}
}

// TestSpansNest checks that every span lies inside its parent, siblings do
// not overlap, no span's self time is negative, and no layer's attributed
// self time is negative.
func TestSpansNest(t *testing.T) {
	for _, w := range workloads {
		m, jobs := measureOnce(t, w, 4)
		p := m.traced[0]
		children := map[int]int64{}
		lastEnd := map[int]int64{}
		for i, s := range p.spans {
			if s.End < s.Start {
				t.Fatalf("%s: span %d %s ends before it starts", w.Name, i, s.Name)
			}
			if s.Parent < 0 {
				continue
			}
			par := p.spans[s.Parent]
			if par.Parent != -1 || par.Job != s.Job || s.Start < par.Start || s.End > par.End {
				t.Fatalf("%s: span %d %s [%d,%d] is not inside job span %d [%d,%d]",
					w.Name, i, s.Name, s.Start, s.End, s.Parent, par.Start, par.End)
			}
			if s.Start < lastEnd[s.Parent] {
				t.Fatalf("%s: span %d %s overlaps its previous sibling", w.Name, i, s.Name)
			}
			lastEnd[s.Parent] = s.End
			children[s.Parent] += s.End - s.Start
		}
		for i, s := range p.spans {
			if self := s.End - s.Start - children[i]; self < 0 {
				t.Errorf("%s: span %d %s has self time %d ns", w.Name, i, s.Name, self)
			}
		}
		var sum jobLayers
		for _, l := range attribute(jobs, p) {
			sum.wl += l.wl
			sum.sim += l.sim
			sum.bench += l.bench
		}
		if sum.wl < 0 || sum.sim < 0 || sum.bench < 0 {
			t.Errorf("%s: negative layer self time %+v", w.Name, sum)
		}
	}
}

type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestPrintedMetricsInBenchmarkJSON checks that both kinds of run print, in
// the table and in the JSON line, exactly the metrics BENCHMARK.json lists,
// with its units.
func TestPrintedMetricsInBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	var listed []string
	for _, w := range bj.Workloads {
		listed = append(listed, w.Name)
	}
	if !slices.Equal(names, listed) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", names, listed)
	}
	all := map[string]bool{}
	for _, d := range append(bj.EndToEnd, bj.PerLayer...) {
		all[d.Name] = true
	}
	w, _ := workloadByName("trace-ipc")
	jobs := w.Jobs(1, testSize)
	m := measure(jobs, nil, true, 0)
	for _, traced := range []bool{false, true} {
		declared := bj.EndToEnd
		metrics := endToEnd(m, 0.001, peakRSSMB())
		if traced {
			declared = bj.PerLayer
			metrics = perLayer(jobs, m)
		}
		units := map[string]string{}
		for _, d := range declared {
			units[d.Name] = d.Unit
		}
		var buf bytes.Buffer
		report{Workload: w.Name, Seed: 1, Jobs: len(jobs), m: m}.print(&buf, metrics, traced)
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var res struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]metricValue
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted != m.attempted {
			t.Errorf("traced=%v: result %+v", traced, res)
		}
		var printed []string
		for n, v := range res.Metrics {
			printed = append(printed, n)
			if units[n] != v.Unit {
				t.Errorf("traced=%v: %s printed in %q, BENCHMARK.json says %q", traced, n, v.Unit, units[n])
			}
		}
		if len(printed) != len(declared) {
			sort.Strings(printed)
			t.Errorf("traced=%v: printed %d metrics %v, BENCHMARK.json lists %d", traced, len(printed), printed, len(declared))
		}
		inTable := false
		for _, line := range lines[:len(lines)-1] {
			f := strings.Fields(line)
			if len(f) > 0 && f[0] == "metric" {
				inTable = true
				continue
			}
			if inTable && len(f) >= 3 && !strings.HasPrefix(line, "tracing overhead") && !all[f[0]] {
				t.Errorf("traced=%v: table prints %s, which BENCHMARK.json does not list", traced, f[0])
			}
		}
	}
}

// TestRationaleMatchesBenchmarkJSON keeps the rationale's workload and
// per-layer lists in step with BENCHMARK.json.
func TestRationaleMatchesBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	b, err := os.ReadFile("rationale.json")
	if err != nil {
		t.Fatal(err)
	}
	var r struct {
		Workloads []struct{ Name, Jobs, Why string }
		PerLayer  []struct {
			Name, What string
			Moves, On  []string
			FlatOn     []string `json:"flat_on"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatal(err)
	}
	isWorkload, isEndToEnd := map[string]bool{}, map[string]bool{}
	for i, w := range r.Workloads {
		isWorkload[w.Name] = true
		if i >= len(bj.Workloads) || bj.Workloads[i].Name != w.Name || w.Jobs == "" || w.Why == "" {
			t.Errorf("rationale workload %d %q does not match BENCHMARK.json", i, w.Name)
		}
	}
	for _, m := range bj.EndToEnd {
		isEndToEnd[m.Name] = true
	}
	if len(r.PerLayer) != len(bj.PerLayer) {
		t.Errorf("rationale has %d per-layer metrics, BENCHMARK.json %d", len(r.PerLayer), len(bj.PerLayer))
	}
	for i, l := range r.PerLayer {
		if i >= len(bj.PerLayer) || bj.PerLayer[i].Name != l.Name || l.What == "" || len(l.On) == 0 {
			t.Errorf("rationale per-layer %d %q does not match BENCHMARK.json", i, l.Name)
		}
		for _, m := range l.Moves {
			if !isEndToEnd[m] {
				t.Errorf("rationale: %s moves %q, not an end-to-end metric", l.Name, m)
			}
		}
		for _, w := range append(l.On, l.FlatOn...) {
			if !isWorkload[w] {
				t.Errorf("rationale: %s names workload %q", l.Name, w)
			}
		}
	}
}

// TestReferenceDigestsFitJobLists checks the recorded digests against the
// job lists the benchmark runs.
func TestReferenceDigestsFitJobLists(t *testing.T) {
	refs, err := loadDigests(digestsJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		n := len(w.Jobs(1, benchSize))
		for _, seed := range []string{"1", "2"} {
			if got := len(refs[w.Name][seed]); got != n {
				t.Errorf("%s seed %s: %d reference digests for %d jobs", w.Name, seed, got, n)
			}
		}
	}
}

func TestFlagsRejectBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "trace-ipc", "--trace", "2"},
		{"--workload", "trace-ipc", "--seconds", "0"},
		{"--workload", "trace-ipc", "extra"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%q) succeeded", args)
		}
	}
}
