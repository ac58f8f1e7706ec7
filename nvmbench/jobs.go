package main

import (
	"fmt"

	"nvmwear"
)

// size holds every job-size knob of the three job lists. The benchmark
// always runs at benchSize; the self-tests run the same lists at testSize.
type size struct {
	SpecLines     uint64 // spec-lifetime device lines (Fig 16)
	SpecEndurance uint32
	SpecPeriod    uint64
	SpecCMT       int

	AttackLines     uint64 // bpa-lifetime device lines (attack, Fig 15)
	AttackEndurance uint32
	AttackCMT       int

	TraceLines uint64 // trace-ipc logical lines (Fig 17)
	Warmup     uint64 // trace-ipc requests through Write/Read before RunTiming
	Requests   uint64 // trace-ipc RunTiming requests
	TraceCMT   int

	SpareFrac uint64 // lifetime devices get Lines/SpareFrac spare lines
}

// benchSize is `wlsim -scale tiny` for the SPEC and trace job lists, and a
// 2^14-line attack device (the size the attack-path shares were profiled
// at) with a lower endurance, so one pass of every list takes seconds.
var benchSize = size{
	SpecLines: 1 << 10, SpecEndurance: 300, SpecPeriod: 8, SpecCMT: 256,
	AttackLines: 1 << 14, AttackEndurance: 2500, AttackCMT: 1 << 13,
	TraceLines: 1 << 16, Warmup: 1 << 17, Requests: 1 << 15, TraceCMT: 256,
	SpareFrac: 32,
}

// testSize keeps a self-test pass of every list well under a second.
var testSize = size{
	SpecLines: 1 << 8, SpecEndurance: 40, SpecPeriod: 8, SpecCMT: 64,
	AttackLines: 1 << 9, AttackEndurance: 100, AttackCMT: 128,
	TraceLines: 1 << 12, Warmup: 1 << 12, Requests: 1 << 11, TraceCMT: 64,
	SpareFrac: 32,
}

// job is one simulation the benchmark hands to the program: a system
// config and a workload spec, plus the warm-up and request counts of a
// timing job.
type job struct {
	Label  string
	Config nvmwear.SystemConfig
	Spec   nvmwear.WorkloadSpec
	Timing bool   // RunTiming job (trace-ipc) rather than RunLifetime
	Warmup uint64 // timing jobs: requests through Write/Read first
	Reqs   uint64 // timing jobs: RunTiming requests
}

// workload is a named job list.
type workload struct {
	Name string
	Jobs func(seed uint64, sz size) []job
}

var workloads = []workload{
	{"spec-lifetime", specLifetimeJobs},
	{"bpa-lifetime", bpaLifetimeJobs},
	{"trace-ipc", traceIPCJobs},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// jobSeed derives job i's seed from the run seed with SplitMix64, so every
// job draws its own stream and the same -seed rebuilds the same jobs.
func jobSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// specLifetimeJobs mirrors RunFig16, both panels: {Baseline, RBSG, TLSR,
// SAWL} x 14 SPEC-like profiles x {64-line, 8-line} regions, each run until
// the device dies.
func specLifetimeJobs(seed uint64, sz size) []job {
	var jobs []job
	for _, gran := range []uint64{64, 8} {
		regions := max(sz.SpecLines/gran, 4)
		for _, scheme := range []nvmwear.SchemeKind{nvmwear.Baseline, nvmwear.RBSG, nvmwear.TLSR, nvmwear.SAWL} {
			for _, name := range nvmwear.SpecBenchmarks() {
				s := jobSeed(seed, len(jobs))
				cfg := nvmwear.SystemConfig{
					Scheme: scheme, Lines: sz.SpecLines, SpareLines: sz.SpecLines / sz.SpareFrac,
					Endurance: sz.SpecEndurance, Period: sz.SpecPeriod, Seed: s,
					Regions: regions, InitGran: sz.SpecLines / regions, CMTEntries: sz.SpecCMT,
				}
				if scheme == nvmwear.SAWL {
					cfg.InitGran = 8
				}
				jobs = append(jobs, job{
					Label:  fmt.Sprintf("%s/%s/g%d", scheme, name, gran),
					Config: cfg,
					Spec:   nvmwear.WorkloadSpec{Kind: nvmwear.WorkloadSPEC, Name: name, Seed: s},
				})
			}
		}
	}
	return jobs
}

// bpaLifetimeJobs mirrors the attack experiment's trigger-aware BPA half for
// all eleven schemes, plus Fig 15's SAWL series (swap periods 8-64 at both
// endurance levels), each run until the device dies.
func bpaLifetimeJobs(seed uint64, sz size) []job {
	var jobs []job
	spares := sz.AttackLines / sz.SpareFrac
	for _, scheme := range nvmwear.Schemes() {
		s := jobSeed(seed, len(jobs))
		repeats := uint64(8 * 64)
		if scheme == nvmwear.SAWL || scheme == nvmwear.NWL {
			repeats = 8 * 4
		}
		jobs = append(jobs, job{
			Label: fmt.Sprintf("attack/%s", scheme),
			Config: nvmwear.SystemConfig{
				Scheme: scheme, Lines: sz.AttackLines, SpareLines: spares,
				Endurance: sz.AttackEndurance, Period: 8,
				RegionLines: 64, Regions: 16, InitGran: 4,
				CMTEntries: sz.AttackCMT, Seed: s,
			},
			Spec: nvmwear.WorkloadSpec{Kind: nvmwear.WorkloadBPA, Seed: s, Repeats: repeats},
		})
	}
	for _, endurance := range []uint32{sz.AttackEndurance, max(sz.AttackEndurance/5, 100)} {
		for _, period := range []uint64{8, 16, 32, 64} {
			s := jobSeed(seed, len(jobs))
			jobs = append(jobs, job{
				Label: fmt.Sprintf("fig15/sawl/w%d/p%d", endurance, period),
				Config: nvmwear.SystemConfig{
					Scheme: nvmwear.SAWL, Lines: sz.AttackLines, SpareLines: spares,
					Endurance: endurance, Period: period, CMTEntries: sz.AttackCMT, Seed: s,
				},
				Spec: nvmwear.WorkloadSpec{Kind: nvmwear.WorkloadBPA, Seed: s, Repeats: period * 4},
			})
		}
	}
	return jobs
}

// traceIPCJobs mirrors RunFig17: {Baseline, PCM-S (BWL), NWL-4, SAWL} x 14
// profiles. A scheme and its baseline share the profile's seed, so they
// see the same request stream, as in Fig 17.
func traceIPCJobs(seed uint64, sz size) []job {
	var jobs []job
	for _, scheme := range []nvmwear.SchemeKind{nvmwear.Baseline, nvmwear.PCMS, nvmwear.NWL, nvmwear.SAWL} {
		for bi, name := range nvmwear.SpecBenchmarks() {
			s := jobSeed(seed, bi)
			cfg := nvmwear.SystemConfig{
				Scheme: scheme, Lines: sz.TraceLines, SpareLines: 1, Endurance: 1 << 30,
				Period: 128, CMTEntries: sz.TraceCMT, Seed: s,
				ObservationWindow: sz.Requests / 256, SettlingWindow: sz.Requests / 256,
			}
			if scheme == nvmwear.PCMS || scheme == nvmwear.NWL {
				cfg.RegionLines, cfg.InitGran = 4, 4
			}
			if scheme == nvmwear.PCMS {
				cfg.Period = 16
			}
			jobs = append(jobs, job{
				Label:  fmt.Sprintf("%s/%s", scheme, name),
				Config: cfg,
				Spec:   nvmwear.WorkloadSpec{Kind: nvmwear.WorkloadSPEC, Name: name, Seed: s},
				Timing: true, Warmup: sz.Warmup, Reqs: sz.Requests,
			})
		}
	}
	return jobs
}
