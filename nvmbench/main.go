// Command nvmbench is the nvmwear benchmark. It runs one named workload —
// a job list mirroring one of the paper's figure runners — at a given seed,
// checks every job's simulated result, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics), ending with one JSON line.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash nvmbench/run.sh --workload spec-lifetime --seed 1 --seconds 30 --trace 0
//
// The load is a closed loop: one worker runs the jobs back to back, with
// nvmwear's result cache, fault injection and sharding all off. Jobs reach
// the program only through the root package's exported API and
// trace.FillBatch, so the benchmark survives internal refactors.
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// digestsJSON holds the reference result digests: workload -> seed -> one
// digest per job, recorded with --record for the development and held-out
// seeds.
//
//go:embed digests.json
var digestsJSON []byte

const (
	// setupRuns is how many times a run launches itself to time set-up.
	setupRuns = 9
	// outDir, under the checkout root the benchmark runs from, receives
	// the span files; run.sh keeps its build there too.
	outDir = ".bench_build/nvmbench"
)

type options struct {
	workload   string
	seed       uint64
	seconds    int
	trace      int
	setupProbe bool
	record     string
	cpuProfile string
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nvmbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("nvmbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: spec-lifetime, bpa-lifetime or trace-ipc")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the job list is derived from")
	fs.IntVar(&o.seconds, "seconds", 30, "how long to measure, in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run printing per-layer metrics")
	fs.BoolVar(&o.setupProbe, "setup-probe", false, "build the job list, report ready and exit (set-up timing)")
	fs.StringVar(&o.record, "record", "", "run one pass and store its digests as the seed's reference in this file")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the untraced passes to this file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	case o.seconds < 1:
		return o, fmt.Errorf("--seconds must be at least 1")
	case o.trace != 0 && o.trace != 1:
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	return o, nil
}

func run(args []string, stdout io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	jobs := w.Jobs(o.seed, benchSize)
	refs, err := loadDigests(digestsJSON)
	if err != nil {
		return err
	}
	want := refs[w.Name][strconv.FormatUint(o.seed, 10)]
	if want != nil && len(want) != len(jobs) {
		return fmt.Errorf("%d reference digests for %d jobs", len(want), len(jobs))
	}
	if o.setupProbe {
		_, err := fmt.Fprintln(stdout, "ready")
		return err
	}
	if o.record != "" {
		return record(o, w.Name, jobs)
	}

	var setup float64
	if o.trace == 0 {
		if setup, err = measureSetup(o); err != nil {
			return err
		}
	}
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
	}
	m := measure(jobs, want, o.trace == 1, time.Duration(o.seconds)*time.Second)
	if o.cpuProfile != "" {
		pprof.StopCPUProfile()
	}

	rep := report{Workload: w.Name, Seed: o.seed, Jobs: len(jobs), m: m}
	var metrics map[string]metricValue
	if o.trace == 0 {
		metrics = endToEnd(m, setup, peakRSSMB())
	} else {
		metrics = perLayer(jobs, m)
		if err := writeSpans(o, jobs, m); err != nil {
			return err
		}
	}
	rep.print(stdout, metrics, o.trace == 1)
	return nil
}

// measurement is what the passes of one run produced.
type measurement struct {
	untraced []passResult
	traced   []passResult
	// attempted and failed count jobs over every pass; failures are
	// errors, panics and digests differing from the reference (the
	// recorded digests for this seed, else the first untraced pass).
	attempted, failed int
	firstErrs         []string
}

type passResult struct {
	wall  float64   // seconds from the first job's start to the last job's result
	secs  []float64 // each job's seconds, probe spans excluded
	outs  []outcome
	spans []span
}

// measure runs whole passes of the job list until the next one would end
// past the budget: untraced only, or alternating untraced and traced
// passes when traced is set. It always runs at least one of each.
func measure(jobs []job, want []string, traced bool, budget time.Duration) *measurement {
	m := &measurement{}
	start := time.Now()
	var last [2]time.Duration
	for p := 0; ; p++ {
		tracing := traced && p%2 == 1
		var tr *tracer
		if tracing {
			tr = &tracer{epoch: time.Now()}
		}
		outs := make([]outcome, len(jobs))
		secs := make([]float64, len(jobs))
		t0 := time.Now()
		for i, j := range jobs {
			// Collect the previous jobs' garbage outside the job's time, so
			// the peak RSS is the largest job's own footprint rather than
			// an accident of when the collector last ran.
			runtime.GC()
			tj := time.Now()
			outs[i] = runJob(j, i, tr)
			secs[i] = time.Since(tj).Seconds()
		}
		d := time.Since(t0)
		if tracing {
			for _, s := range tr.spans {
				if s.Probe {
					secs[s.Job] -= float64(s.End-s.Start) / 1e9
				}
			}
		}
		if want == nil {
			want = make([]string, len(outs))
			for i, o := range outs {
				want[i] = o.Digest
			}
		}
		for i, o := range outs {
			m.attempted++
			if o.Err == nil && o.Digest != want[i] {
				o.Err = fmt.Errorf("%s: digest %s, want %s", jobs[i].Label, o.Digest, want[i])
			}
			if o.Err != nil {
				m.failed++
				if len(m.firstErrs) < 5 {
					m.firstErrs = append(m.firstErrs, o.Err.Error())
				}
			}
		}
		pr := passResult{wall: d.Seconds(), secs: secs, outs: outs}
		if tracing {
			pr.spans = tr.spans
			m.traced = append(m.traced, pr)
			last[1] = d
		} else {
			m.untraced = append(m.untraced, pr)
			last[0] = d
		}
		next := 0
		if traced && p%2 == 0 {
			next = 1
		}
		enough := !traced || len(m.traced) > 0
		if enough && time.Since(start)+last[next] > budget {
			return m
		}
	}
}

// measureSetup launches this binary setupRuns times in set-up probe mode and
// returns the median seconds from launch to the probe's report that its job
// list is built: process start, runtime and package init, and job-list
// construction.
func measureSetup(o options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ts := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		cmd := exec.Command(exe, "--setup-probe", "--workload", o.workload,
			"--seed", strconv.FormatUint(o.seed, 10))
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		line, rerr := bufio.NewReader(pipe).ReadString('\n')
		d := time.Since(t0)
		if err := cmd.Wait(); err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		if rerr != nil || line != "ready\n" {
			return 0, fmt.Errorf("set-up probe printed %q (%v)", line, rerr)
		}
		ts = append(ts, d.Seconds())
	}
	return median(ts), nil
}

// peakRSSMB returns the process's resident-memory high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func loadDigests(b []byte) (map[string]map[string][]string, error) {
	refs := map[string]map[string][]string{}
	if err := json.Unmarshal(b, &refs); err != nil {
		return nil, fmt.Errorf("reference digests: %w", err)
	}
	return refs, nil
}

// record runs one untraced pass and stores its digests as the seed's
// reference in o.record. Any failed job aborts the recording.
func record(o options, name string, jobs []job) error {
	b, err := os.ReadFile(o.record)
	if errors.Is(err, os.ErrNotExist) {
		b, err = []byte("{}"), nil
	}
	if err != nil {
		return err
	}
	refs, err := loadDigests(b)
	if err != nil {
		return err
	}
	digests := make([]string, len(jobs))
	for i, j := range jobs {
		out := runJob(j, i, nil)
		if out.Err != nil {
			return out.Err
		}
		digests[i] = out.Digest
	}
	if refs[name] == nil {
		refs[name] = map[string][]string{}
	}
	refs[name][strconv.FormatUint(o.seed, 10)] = digests
	b, err = json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.record, append(b, '\n'), 0o644)
}

// writeSpans writes every traced pass's spans as JSON under outDir; a
// span's parent indexes its own pass's list.
func writeSpans(o options, jobs []job, m *measurement) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	labels := make([]string, len(jobs))
	for i, j := range jobs {
		labels[i] = j.Label
	}
	passes := make([][]span, len(m.traced))
	for i, p := range m.traced {
		passes[i] = p.spans
	}
	b, err := json.Marshal(struct {
		Workload string   `json:"workload"`
		Seed     uint64   `json:"seed"`
		Jobs     []string `json:"jobs"`
		Passes   [][]span `json:"passes"`
	}{o.workload, o.seed, labels, passes})
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "nvmbench: wrote %s\n", path)
	return nil
}
