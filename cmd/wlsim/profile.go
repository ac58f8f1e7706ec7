package main

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// profiles writes the -cpuprofile and -memprofile pprof files of a run.
type profiles struct {
	// cpu and mem name the output files; an empty name disables that
	// profile.
	cpu, mem string

	cpuFile *os.File
	done    bool
}

// start opens the CPU profile file (if set) and starts the CPU profile.
// Callers must pair it with stop on every exit path, or the profile file
// is truncated and unusable.
func (p *profiles) start() error {
	if p.cpu == "" {
		return nil
	}
	f, err := os.Create(p.cpu)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.cpuFile = f
	return nil
}

// stop flushes the running CPU profile and, with a mem file set, writes a
// post-GC heap snapshot. Idempotent: only the first call writes.
func (p *profiles) stop() error {
	if p.done {
		return nil
	}
	p.done = true
	var first error
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			first = err
		}
		p.cpuFile = nil
	}
	if p.mem != "" {
		f, err := os.Create(p.mem)
		if err != nil {
			if first == nil {
				first = err
			}
			return first
		}
		runtime.GC() // settle allocations so the snapshot reflects live heap
		if err := pprof.WriteHeapProfile(f); err != nil && first == nil {
			first = err
		}
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
