package nvmwear

// This file implements the pre-run cache staleness report behind
// `wlsim all`: before an experiment executes, its Plan records the exact
// job list Run dispatches (same fig identities, counts, and cache-key
// salting) and every key is probed against the open result store — so a
// whole experiment that is fully cached is visibly "0 stale", and skipped,
// before any simulation starts.

// FigFreshness reports one sweep's cache coverage: how many of its jobs
// already have a stored result under the current scale, seed and shard
// layout.
type FigFreshness struct {
	Fig    string // the sweep's cache identity (cacheKey fig)
	Jobs   int    // total jobs the sweep will submit
	Cached int    // jobs whose key is already in the store
}

// Stale returns the number of jobs that will actually execute.
func (f FigFreshness) Stale() int { return f.Jobs - f.Cached }

// CacheFreshness probes the open result store for every job key of the
// named experiment's Plan, without executing anything, using the store's
// stat-only existence check (no read, no verification, no hit or miss).
// Jobs are grouped per fig identity in plan order (fig16 plans two sweeps,
// most experiments one). It returns nil when the scale has no cache open,
// or the experiment is unregistered or plans no jobs (table1, overhead,
// project).
func (sc Scale) CacheFreshness(experiment string) []FigFreshness {
	e, ok := LookupExperiment(experiment)
	if !ok || sc.Cache == nil {
		return nil
	}
	var out []FigFreshness
	idx := map[string]int{}
	for _, j := range e.Plan(sc) {
		k, seen := idx[j.Fig]
		if !seen {
			k = len(out)
			idx[j.Fig] = k
			out = append(out, FigFreshness{Fig: j.Fig})
		}
		out[k].Jobs++
		if sc.Cache.Has(sc.cacheKey(j.Fig, j.Sharded, j.Index)) {
			out[k].Cached++
		}
	}
	return out
}
