package lifetime

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"nvmwear/internal/metrics"
	"nvmwear/internal/nvm"
	"nvmwear/internal/rng"
	"nvmwear/internal/trace"
	"nvmwear/internal/wl"
	"nvmwear/internal/wl/pcms"
	"nvmwear/internal/wl/startgap"
	"nvmwear/internal/workload"
)

// buildShards constructs n identical-geometry baseline shards with
// per-shard seed substreams, the way the root-level runner does.
func buildShards(n int, linesPerShard, spares uint64, endurance uint32, seed uint64) []ShardRun {
	shards := make([]ShardRun, n)
	for b := range shards {
		dev := nvm.New(nvm.Config{Lines: linesPerShard, SpareLines: spares, Endurance: endurance})
		shards[b] = ShardRun{
			Dev:    dev,
			Lv:     wl.NewIdentity(dev),
			Stream: workload.NewBPA(rng.SeedStream(seed, uint64(b)), linesPerShard, 8),
		}
	}
	return shards
}

// withProcs runs f with GOMAXPROCS, the exec pool's worker count, set to
// procs, and restores it after.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// The merged result must equal what a by-hand serial merge of the same
// shard runs produces: summed Served/Ideal, Gini over the concatenated
// wear vector, recomputed overhead/hit-rate ratios, latest-death.
func TestRunShardedMergeMatchesSerialMerge(t *testing.T) {
	const n, lines = 4, 256
	run := func(procs int) (res Result) {
		withProcs(procs, func() {
			var err error
			if res, err = Run(buildShards(n, lines, 8, 100, 7), Options{Workload: "BPA"}); err != nil {
				t.Fatal(err)
			}
		})
		return res
	}
	merged := run(4)

	// Serial reference: identical shards, each a one-shard run, merged by
	// hand.
	shards := buildShards(n, lines, 8, 100, 7)
	var served, ideal uint64
	var st wl.Stats
	var wear []uint32
	dead := true
	for _, sh := range shards {
		r := runOne(t, sh.Dev, sh.Lv, sh.Stream, Options{Workload: "BPA"})
		served += r.Served
		ideal += r.Ideal
		st.Add(sh.Lv.Stats())
		wear = append(wear, sh.Dev.WearCounts()...)
		dead = dead && !sh.Dev.Alive()
	}
	if merged.Served != served || merged.Ideal != ideal {
		t.Fatalf("served/ideal %d/%d, want %d/%d", merged.Served, merged.Ideal, served, ideal)
	}
	if want := metrics.GiniUint32(wear); merged.WearGini != want {
		t.Fatalf("gini %v, want %v over concatenated wear", merged.WearGini, want)
	}
	if merged.WriteOverhead != st.WriteOverhead() || merged.HitRate != st.HitRate() {
		t.Fatalf("overhead/hit %v/%v, want %v/%v",
			merged.WriteOverhead, merged.HitRate, st.WriteOverhead(), st.HitRate())
	}
	if merged.TimedOut != !dead {
		t.Fatalf("TimedOut %v, want %v (latest-death)", merged.TimedOut, !dead)
	}
	if merged.Normalized != float64(served)/float64(ideal) {
		t.Fatalf("normalized %v", merged.Normalized)
	}

	// Scheduling must not affect the merge: one P, same answer.
	if again := run(1); again.Served != merged.Served || again.WearGini != merged.WearGini {
		t.Fatalf("GOMAXPROCS changed result: %+v vs %+v", again, merged)
	}
}

// A whole-device run is Run over one shard, and its Result is the run's
// own view: the device's and the scheme's statistics and the Gini of the
// device's wear. The Gini sorts a private copy, so the run leaves the
// device's counters in line order, as the request loop alone leaves them.
// RBSG's device has Lines + Regions lines, not a power of two, so the
// merge's line-weighted MeanWear must come back bit-equal.
func TestRunShardedSingleShardIsSerial(t *testing.T) {
	const lines, regions = 1024, 8
	shard := func() ShardRun {
		dev := nvm.New(nvm.Config{Lines: lines + regions, SpareLines: 8, Endurance: 100, Variation: 0.1, Seed: 3})
		lv := startgap.New(dev, startgap.Config{Lines: lines, Regions: regions, Period: 4})
		return ShardRun{Dev: dev, Lv: lv, Stream: workload.NewBPA(7, lines, 8)}
	}
	sh := shard()
	res, err := Run([]ShardRun{sh}, Options{Workload: "BPA"})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut {
		t.Fatal("the run did not wear the device out")
	}
	ds := sh.Dev.Stats()
	if res.DeviceStats != ds || math.Float64bits(res.DeviceStats.MeanWear) != math.Float64bits(ds.MeanWear) {
		t.Fatalf("device stats %+v, want the device's own %+v", res.DeviceStats, ds)
	}
	if st := sh.Lv.Stats(); res.SchemeStats != st {
		t.Fatalf("scheme stats %+v, want the scheme's own %+v", res.SchemeStats, st)
	}
	if want := metrics.GiniUint32(sh.Dev.WearCounts()); res.WearGini != want {
		t.Fatalf("gini %v, want %v of the device's wear", res.WearGini, want)
	}

	// The reference: the same shard through the request loop alone.
	ref := shard()
	Serve(ref.Dev, ref.Lv, ref.Stream, writeBudget(ref.Dev, 0), math.MaxUint64)
	if !slices.Equal(sh.Dev.WearCounts(), ref.Dev.WearCounts()) {
		t.Fatal("the run left the device's wear counters out of line order")
	}
}

func TestRunShardedNoShards(t *testing.T) {
	if _, err := Run(nil, Options{}); err == nil {
		t.Fatal("want error for empty shard list")
	}
}

// MaxWrites splits across shards and sums back: the merged run serves
// exactly the budget when no shard dies first.
func TestRunShardedSplitsWriteBudget(t *testing.T) {
	const budget = 1000 // not divisible by 3: ShareLines must still sum exactly
	res, err := Run(buildShards(3, 256, 64, 1<<30, 7), Options{MaxWrites: budget, Workload: "BPA"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != budget {
		t.Fatalf("served %d writes, want the full budget %d", res.Served, budget)
	}
	if !res.TimedOut {
		t.Fatal("huge-endurance run should time out, not die")
	}
}

// runConcurrently starts 8 runs of the shards build returns at once, at 4
// Ps, each fanning its shards out on its own pool, and requires every
// Result equal but for Elapsed. Under -race (CI runs it) this guards the
// pool, the serve loops and the merge against shared state.
func runConcurrently(t *testing.T, build func() []ShardRun) {
	t.Helper()
	results := make([]Result, 8)
	withProcs(4, func() {
		var wg sync.WaitGroup
		for g := range results {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				res, err := Run(build(), Options{Workload: "w"})
				if err != nil {
					t.Error(err)
					return
				}
				res.Elapsed = 0
				results[g] = res
			}(g)
		}
		wg.Wait()
	})
	for g := 1; g < len(results); g++ {
		if results[g] != results[0] {
			t.Fatalf("concurrent run %d diverged: %+v vs %+v", g, results[g], results[0])
		}
	}
}

// Race hammer: many concurrent sharded runs of BPA shards, refilled in
// place.
func TestRunShardedConcurrentMergeRace(t *testing.T) {
	runConcurrently(t, func() []ShardRun { return buildShards(4, 128, 4, 50, 7) })
}

// The same hammer on SPEC gcc shards that read themselves ahead, each with
// a producer of its own: 8 runs of 4 pool shards put 32 read-ahead rings
// in flight at once.
func TestRunShardedReadAheadRace(t *testing.T) {
	const n, lines = 4, 128
	gcc, ok := workload.ProfileByName("gcc")
	if !ok {
		t.Fatal("no gcc profile")
	}
	runConcurrently(t, func() []ShardRun {
		shards := make([]ShardRun, n)
		for b := range shards {
			dev := nvm.New(nvm.Config{Lines: lines, SpareLines: 4, Endurance: 60})
			shards[b] = ShardRun{
				Dev:    dev,
				Lv:     pcms.New(dev, pcms.Config{Lines: lines, RegionLines: 4, Period: 8, Seed: uint64(b)}),
				Stream: trace.ReadAhead(gcc.New(rng.SeedStream(7, uint64(b)), lines)),
			}
		}
		return shards
	})
}
