package nvmwear

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nvmwear/internal/store"
)

// This file holds the checkpoint/resume guarantees at the figure level: a
// warm or partially-populated cache must reproduce the exact table a cold,
// cache-less run prints — resuming is an optimisation, never a different
// experiment.

// openCache opens a result store in dir for the test, failing fast and
// closing on cleanup.
func openCache(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Logf = t.Logf
	t.Cleanup(func() { st.Close() })
	return st
}

// cacheObjects lists the entry files a cached run left in dir.
func cacheObjects(t *testing.T, dir string) []string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(filepath.Join(dir, "objects"), func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

func TestCachedRunByteIdenticalToUncached(t *testing.T) {
	sc := tinyScale()
	uncached := renderFig(RunFig3(sc))

	dir := t.TempDir()
	st := openCache(t, dir)
	sc.Cache = st
	cold := renderFig(RunFig3(sc))
	if cold != uncached {
		t.Fatalf("cold cached table differs from uncached:\n--- uncached ---\n%s\n--- cached ---\n%s",
			uncached, cold)
	}
	if st.Stats().Puts == 0 {
		t.Fatal("cold cached run persisted nothing")
	}
	warm := renderFig(RunFig3(sc))
	if warm != uncached {
		t.Fatalf("warm cached table differs from uncached:\n--- uncached ---\n%s\n--- cached ---\n%s",
			uncached, warm)
	}
	if hits := st.Stats().Hits; hits == 0 {
		t.Fatal("warm run served no cache hits")
	}
}

// TestPartialCacheResumesByteIdentical models a killed sweep: some results
// persisted, some gone. The resumed run — at a different worker count — must
// recompute only the gaps and still render the identical table.
func TestPartialCacheResumesByteIdentical(t *testing.T) {
	sc := tinyScale()
	uncached := renderFig(RunFig3(withParallelism(sc, 1)))

	dir := t.TempDir()
	st := openCache(t, dir)
	sc.Cache = st
	if got := renderFig(RunFig3(withParallelism(sc, 4))); got != uncached {
		t.Fatal("cold cached run differs from uncached")
	}

	// "Crash": drop every third persisted result.
	objects := cacheObjects(t, dir)
	if len(objects) < 3 {
		t.Fatalf("only %d cache entries, expected one per job", len(objects))
	}
	for i, p := range objects {
		if i%3 == 0 {
			if err := os.Remove(p); err != nil {
				t.Fatal(err)
			}
		}
	}

	before := st.Stats()
	if got := renderFig(RunFig3(withParallelism(sc, 8))); got != uncached {
		t.Fatalf("resumed table differs from uncached:\n--- uncached ---\n%s\n--- resumed ---\n%s",
			uncached, got)
	}
	after := st.Stats()
	if after.Hits == before.Hits {
		t.Fatal("resume served no hits despite surviving entries")
	}
	if after.Misses == before.Misses {
		t.Fatal("resume recomputed nothing despite deleted entries")
	}
}

// TestCorruptCacheEntryRecoversEndToEnd flips bits in a persisted result;
// the next run must quarantine it, recompute, and print the same table.
func TestCorruptCacheEntryRecoversEndToEnd(t *testing.T) {
	sc := tinyScale()
	uncached := renderFig(RunFig3(sc))

	dir := t.TempDir()
	st := openCache(t, dir)
	sc.Cache = st
	if got := renderFig(RunFig3(sc)); got != uncached {
		t.Fatal("cold cached run differs from uncached")
	}

	objects := cacheObjects(t, dir)
	data, err := os.ReadFile(objects[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x55
	if err := os.WriteFile(objects[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	if got := renderFig(RunFig3(sc)); got != uncached {
		t.Fatalf("table differs after corrupt entry:\n--- uncached ---\n%s\n--- got ---\n%s",
			uncached, got)
	}
	stats := st.Stats()
	if stats.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", stats.Quarantined)
	}
	// The evidence file survives for inspection.
	entries, err := os.ReadDir(filepath.Join(dir, "corrupt"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("corrupt/ holds %d entries (err %v), want 1", len(entries), err)
	}
}

// TestCacheKeysCarryVersionSalt pins the invalidation contract: every key
// starts with resultsVersion, so bumping the salt orphans old entries
// instead of serving stale results.
func TestCacheKeysCarryVersionSalt(t *testing.T) {
	sc := tinyScale()
	key := sc.cacheKey("fig3", true, 7)
	if !strings.HasPrefix(key, resultsVersion+"|") {
		t.Fatalf("cache key %q lacks the %q salt prefix", key, resultsVersion)
	}
	other := sc.cacheKey("fig3", true, 8)
	if key == other {
		t.Fatal("distinct job indices share a cache key")
	}
	scaled := sc
	scaled.Requests *= 2
	if scaled.cacheKey("fig3", true, 7) == key {
		t.Fatal("distinct scales share a cache key")
	}
	seeded := sc
	seeded.Seed++
	if seeded.cacheKey("fig3", true, 7) == key {
		t.Fatal("distinct seeds share a cache key")
	}

	// Shard-layout salting is per experiment: a sharded sweep's keys change
	// with the shard count, while an experiment the sharder never touches
	// keeps the same (serial) keys at every -shards value.
	sharded := sc
	sharded.Shards = 4
	if sharded.cacheKey("fig3", true, 7) == key {
		t.Fatal("sharded layout shares the serial cache key")
	}
	if sharded.cacheKey("fig3", false, 7) != key {
		t.Fatal("unsharded experiment's key varies with the shard layout")
	}
}

// TestWearModelSaltsCacheKeys pins the -wear invalidation contract at both
// levels. Key level: a non-default wear model salts the lifetime sweeps'
// keys while the default keeps the historical keys and experiments the
// sharder never touches ignore the model entirely. Store level: against
// one warm cache, a -wear override forces a full recompute (no stale
// default-physics results can be served), produces a different table, and
// leaves the default entries warm for the next default run.
func TestWearModelSaltsCacheKeys(t *testing.T) {
	sc := tinyScale()
	key := sc.cacheKey("fig15", true, 3)
	worn := sc
	worn.WearModel = "compress"
	if worn.cacheKey("fig15", true, 3) == key {
		t.Fatal("wear model does not salt the sharded cache key")
	}
	if worn.cacheKey("fig12", false, 3) != sc.cacheKey("fig12", false, 3) {
		t.Fatal("wear model salts an experiment the sharder never touches")
	}

	dir := t.TempDir()
	st := openCache(t, dir)
	sc.Cache = st
	worn.Cache = st
	def := renderFig(RunFig15(sc))
	defMisses := st.Stats().Misses
	if defMisses == 0 {
		t.Fatal("cold default run persisted nothing")
	}
	compressed := renderFig(RunFig15(worn))
	wornStats := st.Stats()
	if got := wornStats.Misses - defMisses; got != defMisses {
		t.Fatalf("-wear compress recomputed %d of %d jobs; wear-salted keys must force a full recompute", got, defMisses)
	}
	if compressed == def {
		t.Fatal("compression-aware wear rendered the default-physics table")
	}
	if again := renderFig(RunFig15(sc)); again != def {
		t.Fatal("default re-run after the -wear run lost byte identity")
	}
	final := st.Stats()
	if final.Misses != wornStats.Misses {
		t.Fatalf("default re-run recomputed %d jobs; its entries should have stayed warm", final.Misses-wornStats.Misses)
	}
	if final.Hits == wornStats.Hits {
		t.Fatal("default re-run served no cache hits")
	}
}
