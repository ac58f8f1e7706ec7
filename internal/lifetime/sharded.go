// Sharded lifetime runs: one large run decomposed along the device's bank
// geometry into independent per-shard runs on the exec pool, with wear and
// accounting merged back into a single Result.
//
// The decomposition is exact for schemes whose leveling never crosses a
// partition unit, when those units divide evenly across shards: each shard
// is a closed system (its own device slice, scheme instance and trace
// substream), so the union of shard trajectories is a trajectory of the
// whole device under a bank-interleaved request order. Callers are
// responsible for that gating (the root package's scheme catalogue) — this
// runner just executes whatever shard list it is handed.
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

// ShardRun bundles one shard of a decomposed run: a slice of the device
// geometry, the scheme instance leveling it, and the shard's private trace
// stream (seeded via rng.SeedStream substreams so shards never share
// randomness).
type ShardRun struct {
	Dev    *nvm.Device
	Lv     wl.Leveler
	Stream trace.Stream
}

// ShardedOptions controls a sharded run.
type ShardedOptions struct {
	Options
	// Parallelism bounds concurrently running shards; <= 0 uses GOMAXPROCS.
	Parallelism int
	// Context, when non-nil, cancels the run.
	Context context.Context
}

// RunSharded runs each shard on the exec pool and merges the outcomes:
//
//   - Served and Ideal writes are sums, so Normalized stays ΣServed/ΣIdeal.
//   - WriteOverhead and HitRate are recomputed from summed wl.Stats, not
//     averaged ratios — shards with more traffic weigh more, exactly as in
//     a serial run.
//   - WearGini is computed over the concatenated per-shard wear vectors,
//     identical to the serial Gini when the decomposition is exact.
//   - Death is latest-death: the merged device is dead only when every
//     shard has exhausted its spares, mirroring the global worn-vs-spares
//     predicate (a shard that dies early simply stops serving while the
//     rest continue, as a real bank-partitioned device would).
//
// MaxWrites is split across shards with nvm.ShareLines; 0 keeps the
// per-shard default (4x each shard's own ideal writes).
func RunSharded(shards []ShardRun, opts ShardedOptions) (Result, error) {
	if len(shards) == 0 {
		return Result{}, fmt.Errorf("lifetime: RunSharded with no shards")
	}
	if len(shards) == 1 {
		return Run(shards[0].Dev, shards[0].Lv, shards[0].Stream, opts.Options), nil
	}
	start := time.Now()
	pool := &exec.Pool{Workers: opts.Parallelism, Context: opts.Context}
	n := uint64(len(shards))
	_, err := exec.Map(pool, len(shards), func(i int, _ uint64) (struct{}, error) {
		sh := shards[i]
		Serve(sh.Dev, sh.Lv, sh.Stream, writeBudget(sh.Dev, nvm.ShareLines(opts.MaxWrites, uint64(i), n)), math.MaxUint64)
		return struct{}{}, nil
	})
	if err != nil {
		return Result{}, err
	}

	var st wl.Stats
	var parts []nvm.Stats
	var lines, ideal uint64
	for _, sh := range shards {
		st.Add(sh.Lv.Stats())
		parts = append(parts, sh.Dev.Stats())
		lines += sh.Dev.Lines()
		ideal += sh.Dev.IdealWrites()
	}

	// Concatenated wear vector: one buffer, each shard's counters appended,
	// then sorted in place for the Gini, which needs no copy of its own.
	wear := make([]uint32, 0, lines)
	for _, sh := range shards {
		wear = append(wear, sh.Dev.WearCounts()...)
	}
	elapsed := time.Since(start)
	metrics.SortUint32(wear)
	return newResult(shards[0].Lv.Name(), opts.Workload, st, nvm.MergeStats(parts...), metrics.GiniSorted(wear), ideal, elapsed), nil
}
