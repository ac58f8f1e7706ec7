// Package lifetime drives a workload through a wear-leveling scheme until
// the NVM device fails, and reports the normalized lifetime — the fraction
// of the ideal lifetime (perfectly uniform wear) the scheme achieved. This
// is the measurement behind the paper's Figs 3, 4, 5, 15 and 16.
//
// The paper simulates 64 GB devices with 10^5-10^6 cell endurance over
// months of simulated traffic; that is far beyond a unit-test budget, so
// experiments here run on scaled-down devices (fewer lines, lower
// endurance). Normalized lifetime is scale-invariant as long as the ratio
// of endurance to swapping period and the regions-to-capacity proportions
// are preserved; EXPERIMENTS.md records the scale factors used per figure.
package lifetime

import (
	"fmt"
	"math"
	"time"

	"nvmwear/internal/metrics"
	"nvmwear/internal/nvm"
	"nvmwear/internal/trace"
	"nvmwear/internal/wl"
)

// Result summarizes one lifetime run.
type Result struct {
	Scheme        string
	Workload      string
	Normalized    float64 // fraction of ideal lifetime achieved
	Served        uint64  // demand writes served before failure
	Ideal         uint64  // device ideal writes
	WriteOverhead float64
	WearGini      float64
	HitRate       float64 // CMT hit rate (1 for non-tiered schemes)
	Elapsed       time.Duration
	TimedOut      bool // run hit MaxRequests before device death

	// Fault-injection outcomes (zero on fault-free runs).
	Reads         uint64 // device reads issued over the run
	Uncorrectable uint64 // reads lost beyond the ECC budget

	// Population accounting for fleet-style sweeps.
	SparesUsed  uint64     // spare lines consumed over the run
	FaultRemaps uint64     // spare consumptions forced by faults, not wear
	Cause       DeathCause // how (whether) the run ended the device

	// Raw accounting for callers that need more than the ratios above —
	// the fault sweep's recovery table reads retry/scrub/rebuild counters
	// here. Both are exact sums across shards in a sharded run, so the
	// counters stay meaningful whether the run decomposed or not.
	DeviceStats nvm.Stats
	SchemeStats wl.Stats
}

// String implements fmt.Stringer.
func (r Result) String() string {
	return fmt.Sprintf("%s/%s: lifetime %.1f%% (served %d / ideal %d, overhead %.2f%%, gini %.3f)",
		r.Scheme, r.Workload, 100*r.Normalized, r.Served, r.Ideal,
		100*r.WriteOverhead, r.WearGini)
}

// Options controls a run.
type Options struct {
	// MaxWrites bounds the run in demand writes; 0 means 4x the device's
	// ideal writes (a scheme cannot do better than ideal, so 4x guarantees
	// termination regardless of the workload's read share).
	MaxWrites uint64
	// Workload label for reporting.
	Workload string
}

// writeBudget is the demand-write bound of a run on dev: maxWrites, or 4x
// the device's ideal writes when it is 0.
func writeBudget(dev *nvm.Device, maxWrites uint64) uint64 {
	if maxWrites == 0 {
		return 4 * dev.IdealWrites()
	}
	return maxWrites
}

// Run pumps requests from the stream through the scheme until the device
// dies or the write budget is exhausted.
func Run(dev *nvm.Device, lv wl.Leveler, stream trace.Stream, opts Options) Result {
	start := time.Now()
	Serve(dev, lv, stream, writeBudget(dev, opts.MaxWrites), math.MaxUint64)
	elapsed := time.Since(start)
	return newResult(lv.Name(), opts.Workload, lv.Stats(), dev.Stats(), dev.WearCounts(), dev.IdealWrites(), elapsed)
}

// newResult assembles a run's Result from the scheme's and the device's
// accounting, the device's per-line wear and its ideal writes.
func newResult(scheme, workload string, st wl.Stats, ds nvm.Stats, wear []uint32, ideal uint64, elapsed time.Duration) Result {
	res := Result{
		Scheme:        scheme,
		Workload:      workload,
		Served:        st.DataWrites,
		Ideal:         ideal,
		WriteOverhead: st.WriteOverhead(),
		WearGini:      metrics.GiniUint32(wear),
		HitRate:       st.HitRate(),
		Elapsed:       elapsed,
		TimedOut:      !ds.Dead,
		Reads:         ds.TotalReads,
		Uncorrectable: ds.Uncorrectable,
		SparesUsed:    ds.SparesUsed,
		FaultRemaps:   FaultRemaps(ds),
		Cause:         Classify(ds),
		DeviceStats:   ds,
		SchemeStats:   st,
	}
	if ideal > 0 {
		res.Normalized = float64(res.Served) / float64(ideal)
	}
	return res
}

// refill is how many requests are pulled from the stream and handed to the
// scheme per AccessBatch call.
const refill = 4096

// Serve drives requests from stream through the scheme until the device
// dies, maxWrites demand writes have been served, or maxReqs requests have
// been drawn, whichever comes first; math.MaxUint64 sets no bound. It is
// the one request loop of budgeted lifetime runs and of fixed-length runs
// on devices that cannot die within them.
//
// Serve refills a request buffer with trace.FillBatch, never drawing past
// maxReqs, so a fixed-length run leaves the stream where its last request
// put it and a caller may go on reading it. A run that ends on its write
// budget or on device death may have drawn requests it never applied; its
// stream is its own, and no Result depends on where it stopped. Each
// refill goes whole to
// AccessBatch, which is observably the per-request Access loop with a
// liveness check before every request. The refill holding the write that
// exhausts the write budget is cut right after that write, so requests
// past it are never applied; only a refill with more requests than the
// budget has writes left can hold that write, so no other refill is
// scanned. The writes a refill applied are the delta of the scheme's
// DataWrites: a live device serves every write handed to it, and the
// Leveler contract counts each one. A short AccessBatch means the device
// died, which ends the loop.
func Serve(dev *nvm.Device, lv wl.Leveler, stream trace.Stream, maxWrites, maxReqs uint64) {
	ops := make([]trace.Op, refill)
	addrs := make([]uint64, refill)
	start := lv.Stats().DataWrites
	var writes uint64
	for writes < maxWrites && maxReqs > 0 && dev.Alive() {
		k := min(maxReqs, refill)
		n := trace.FillBatch(stream, ops[:k], addrs[:k])
		maxReqs -= uint64(n)
		o, a := ops[:n], addrs[:n]
		if writes+uint64(n) > maxWrites {
			cut := cutAfterWrites(o, maxWrites-writes)
			o, a = o[:cut], a[:cut]
		}
		lv.AccessBatch(o, a)
		writes = lv.Stats().DataWrites - start
	}
}

// cutAfterWrites returns the length of the shortest prefix of ops holding
// `target` writes (len(ops) when there are fewer).
func cutAfterWrites(ops []trace.Op, target uint64) int {
	var w uint64
	for i, op := range ops {
		if op == trace.Write {
			w++
			if w == target {
				return i + 1
			}
		}
	}
	return len(ops)
}
