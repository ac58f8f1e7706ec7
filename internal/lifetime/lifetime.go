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
	"context"
	"fmt"
	"math"
	"time"

	"nvmwear/internal/exec"
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
	// termination regardless of the workload's read share). A run of
	// several shards splits it across them with nvm.ShareLines.
	MaxWrites uint64
	// Workload label for reporting.
	Workload string
	// Context, when non-nil, cancels a run of several shards. A one-shard
	// run goes to completion.
	Context context.Context
}

// writeBudget is the demand-write bound of a run on dev: maxWrites, or 4x
// the device's ideal writes when it is 0.
func writeBudget(dev *nvm.Device, maxWrites uint64) uint64 {
	if maxWrites == 0 {
		return 4 * dev.IdealWrites()
	}
	return maxWrites
}

// ShardRun is one shard of a run: a device (the whole device, or one
// bank's slice of its geometry), the scheme instance leveling it, and the
// shard's own trace stream (for one of several shards, a rng.SeedStream
// substream, so shards never share randomness).
type ShardRun struct {
	Dev    *nvm.Device
	Lv     wl.Leveler
	Stream trace.Stream
}

// Run drives each shard's stream through its scheme until the shard's
// device dies or its share of the write budget is spent, then merges the
// shards into one Result. A whole-device run is one shard, served on the
// caller's goroutine; several shards run on the exec pool, each a closed
// system. Which decompositions are exact (the union of the shard
// trajectories is a trajectory of the whole device under a bank-interleaved
// request order) is the caller's gating (the root package's scheme
// catalogue); Run executes whatever shard list it is handed.
//
// The merge is the same for one shard or many:
//
//   - Served and Ideal writes are sums, so Normalized stays ΣServed/ΣIdeal.
//   - WriteOverhead and HitRate are recomputed from summed wl.Stats, not
//     averaged ratios, so shards with more traffic weigh more, as in a
//     whole-device run.
//   - WearGini is computed over the concatenated per-shard wear vectors,
//     identical to the whole-device Gini when the decomposition is exact.
//   - Death is latest-death (nvm.MergeStats): the merged device is dead
//     only when every shard has exhausted its spares, as a bank-partitioned
//     device keeps serving while any bank lives.
func Run(shards []ShardRun, opts Options) (Result, error) {
	if len(shards) == 0 {
		return Result{}, fmt.Errorf("lifetime: Run with no shards")
	}
	start := time.Now()
	n := uint64(len(shards))
	serve := func(i int) {
		sh := shards[i]
		Serve(sh.Dev, sh.Lv, sh.Stream, writeBudget(sh.Dev, nvm.ShareLines(opts.MaxWrites, uint64(i), n)), math.MaxUint64)
	}
	if n == 1 {
		serve(0)
	} else {
		pool := &exec.Pool{Context: opts.Context}
		if _, err := exec.Map(pool, len(shards), func(i int, _ uint64) (struct{}, error) {
			serve(i)
			return struct{}{}, nil
		}); err != nil {
			return Result{}, err
		}
	}
	elapsed := time.Since(start)
	return merge(shards, opts.Workload, elapsed), nil
}

// merge assembles a run's Result from its shards' scheme and device
// accounting and the Gini coefficient of their concatenated wear.
func merge(shards []ShardRun, workload string, elapsed time.Duration) Result {
	var st wl.Stats
	parts := make([]nvm.Stats, len(shards))
	var lines, ideal uint64
	for i, sh := range shards {
		st.Add(sh.Lv.Stats())
		parts[i] = sh.Dev.Stats()
		lines += sh.Dev.Lines()
		ideal += sh.Dev.IdealWrites()
	}
	// One buffer of every shard's counters, sorted in place for the Gini:
	// the devices' own counters stay in line order.
	wear := make([]uint32, 0, lines)
	for _, sh := range shards {
		wear = append(wear, sh.Dev.WearCounts()...)
	}
	metrics.SortUint32(wear)

	ds := nvm.MergeStats(parts...)
	res := Result{
		Scheme:        shards[0].Lv.Name(),
		Workload:      workload,
		Served:        st.DataWrites,
		Ideal:         ideal,
		WriteOverhead: st.WriteOverhead(),
		WearGini:      metrics.GiniSorted(wear),
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
// Serve fills refills of up to 4096 requests into one buffer with
// trace.FillBatch, never drawing past maxReqs, so a fixed-length run leaves
// the stream at request maxReqs and a caller may go on reading it. Each
// refill goes whole to AccessBatch, which is observably the per-request
// Access loop with a liveness check before every request. The refill
// holding the write that exhausts the write budget is cut right after that
// write, so requests past it are never applied; only a refill with more
// requests than the budget has writes left can hold that write, so no
// other refill is scanned. The writes a refill applied are the delta of
// the scheme's DataWrites: a live device serves every write handed to it,
// and the Leveler contract counts each one. A short AccessBatch means the
// device died, which ends the loop; a run that ends on its write budget or
// on device death leaves the rest of its last refill unapplied. A stream
// that reads itself ahead (trace.ReadAhead) overlaps its generation with
// this loop.
func Serve(dev *nvm.Device, lv wl.Leveler, stream trace.Stream, maxWrites, maxReqs uint64) {
	ops := make([]trace.Op, refill)
	addrs := make([]uint64, refill)
	start := lv.Stats().DataWrites
	var writes uint64
	for writes < maxWrites && maxReqs > 0 && dev.Alive() {
		k := min(maxReqs, refill)
		n := trace.FillBatch(stream, ops[:k], addrs[:k])
		if n == 0 {
			return
		}
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
