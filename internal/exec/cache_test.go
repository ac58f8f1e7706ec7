package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// mapStore is an in-memory Store for pool tests.
type mapStore struct {
	mu   sync.Mutex
	m    map[string][]byte
	gets int
	puts int
}

func newMapStore() *mapStore { return &mapStore{m: map[string][]byte{}} }

func (s *mapStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	v, ok := s.m[key]
	return v, ok
}

func (s *mapStore) Put(key string, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	s.m[key] = append([]byte(nil), payload...)
	return nil
}

func storePool(st Store, workers int) *Pool {
	return &Pool{
		Workers: workers,
		Store:   st,
		Key:     func(i int) string { return fmt.Sprintf("job-%d", i) },
	}
}

func TestMapCacheHitsBypassWorkers(t *testing.T) {
	st := newMapStore()
	square := func(i int, seed uint64) (int, error) { return i * i, nil }
	first, err := Map(storePool(st, 4), 20, square)
	if err != nil {
		t.Fatal(err)
	}
	if st.puts != 20 {
		t.Fatalf("%d puts after cold run, want 20", st.puts)
	}
	// Second run: every result must come from the store, fn must not run.
	second, err := Map(storePool(st, 4), 20, func(i int, seed uint64) (int, error) {
		t.Errorf("job %d recomputed despite cached result", i)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i] != i*i || second[i] != first[i] {
			t.Fatalf("result[%d]: cold %d, warm %d, want %d", i, first[i], second[i], i*i)
		}
	}
	if st.puts != 20 {
		t.Fatalf("warm run wrote %d extra entries", st.puts-20)
	}
}

func TestMapCacheFiresOnDoneForHits(t *testing.T) {
	st := newMapStore()
	if _, err := Map(storePool(st, 2), 10, func(i int, seed uint64) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	var calls, zeroElapsed int
	p := storePool(st, 2)
	p.OnDone = func(done, total int, elapsed time.Duration) {
		calls++
		if total != 10 {
			t.Errorf("total %d, want 10", total)
		}
		if done != calls {
			t.Errorf("done %d on call %d: hits must count in order", done, calls)
		}
		if elapsed == 0 {
			zeroElapsed++
		}
	}
	if _, err := Map(p, 10, func(i int, seed uint64) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 10 || zeroElapsed != 10 {
		t.Fatalf("OnDone: %d calls, %d with zero elapsed; want 10/10", calls, zeroElapsed)
	}
}

func TestMapCachePartialResume(t *testing.T) {
	st := newMapStore()
	// Seed the store with only the even jobs, as a killed run would have
	// left it: each completed job was persisted individually.
	for i := 0; i < 10; i += 2 {
		data, err := encodeResult(i * 3)
		if err != nil {
			t.Fatal(err)
		}
		st.Put(fmt.Sprintf("job-%d", i), data)
	}
	ran := map[int]bool{}
	var mu sync.Mutex
	results, err := Map(storePool(st, 4), 10, func(i int, seed uint64) (int, error) {
		mu.Lock()
		ran[i] = true
		mu.Unlock()
		return i * 3, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range results {
		if v != i*3 {
			t.Fatalf("result[%d] = %d", i, v)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < 10; i += 2 {
		if ran[i] {
			t.Fatalf("cached job %d re-ran", i)
		}
	}
	for i := 1; i < 10; i += 2 {
		if !ran[i] {
			t.Fatalf("missing job %d was not recomputed", i)
		}
	}
}

func TestMapCacheUndecodablePayloadRecomputes(t *testing.T) {
	st := newMapStore()
	st.m["job-3"] = []byte("not gob at all")
	ran := false
	results, err := Map(storePool(st, 1), 4, func(i int, seed uint64) (int, error) {
		if i == 3 {
			ran = true
		}
		return i + 100, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("undecodable entry served as a hit")
	}
	if results[3] != 103 {
		t.Fatalf("result[3] = %d", results[3])
	}
	// The recomputed value overwrote the garbage.
	if v, ok := decodeResult[int](st.m["job-3"]); !ok || v != 103 {
		t.Fatalf("store not repaired: %v %v", v, ok)
	}
}

func TestMapEmptyKeyDisablesCachingPerJob(t *testing.T) {
	st := newMapStore()
	p := &Pool{
		Workers: 1,
		Store:   st,
		Key: func(i int) string {
			if i == 0 {
				return "" // job 0 opts out
			}
			return fmt.Sprintf("k%d", i)
		},
	}
	if _, err := Map(p, 3, func(i int, seed uint64) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	if st.puts != 2 {
		t.Fatalf("%d puts, want 2 (job 0 uncached)", st.puts)
	}
}

func TestMapCostDispatchesLongestFirst(t *testing.T) {
	costs := []float64{3, 9, 1, 9, 5}
	var order []int
	p := &Pool{
		Workers: 1, // serial: dispatch order observable
		Cost:    func(i int) float64 { return costs[i] },
	}
	results, err := Map(p, len(costs), func(i int, seed uint64) (int, error) {
		order = append(order, i)
		return i * 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Descending cost, ties in submission order: 9(j1), 9(j3), 5(j4), 3(j0), 1(j2).
	want := []int{1, 3, 4, 0, 2}
	for k := range want {
		if order[k] != want[k] {
			t.Fatalf("dispatch order %v, want %v", order, want)
		}
	}
	// Results stay in submission order regardless.
	for i, v := range results {
		if v != i*2 {
			t.Fatalf("result[%d] = %d", i, v)
		}
	}
}

func TestMapCostDeterministicAcrossWorkerCounts(t *testing.T) {
	costs := make([]float64, 40)
	for i := range costs {
		costs[i] = float64((i * 7) % 11)
	}
	collect := func(workers int) []uint64 {
		p := &Pool{Workers: workers, BaseSeed: 99, Cost: func(i int) float64 { return costs[i] }}
		seeds, err := Map(p, len(costs), func(i int, seed uint64) (uint64, error) {
			return seed ^ uint64(i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return seeds
	}
	a, b := collect(1), collect(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result[%d] differs between -j1 and -j8 under cost ordering", i)
		}
	}
}

func TestMapBackoffWaitHonorsCancellation(t *testing.T) {
	// A cancelled sweep must not linger in a backoff sleep: the final wait
	// selects on ctx.Done() and the retry loop gives up immediately after.
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{
		Workers: 1,
		Context: ctx,
		Retries: 5,
		Backoff: 30 * time.Second, // would dwarf the test timeout if waited
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Map(p, 1, func(i int, seed uint64) (int, error) {
		return 0, Retryable(errors.New("flaky"))
	})
	elapsed := time.Since(start)
	if elapsed > 5*time.Second {
		t.Fatalf("cancelled sweep lingered %v in backoff", elapsed)
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CanceledError", err)
	}
}

func TestMapCancelledBetweenRetriesSkipsNextAttempt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	attempts := 0
	p := &Pool{
		Workers: 1,
		Context: ctx,
		Retries: 10,
		Sleep: func(time.Duration) {
			cancel() // cancelled during the backoff wait
		},
		Backoff: time.Millisecond,
	}
	_, err := Map(p, 1, func(i int, seed uint64) (int, error) {
		attempts++
		return 0, Retryable(errors.New("flaky"))
	})
	if attempts != 1 {
		t.Fatalf("%d attempts after cancellation mid-backoff, want 1", attempts)
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CanceledError", err)
	}
}

// OnJob must fire exactly once per job with the job's result — both for
// computed jobs and for cache-prepass hits (elapsed 0), so streaming
// consumers see every point even on a fully-cached rerun.
func TestMapOnJobFiresForComputedAndCachedJobs(t *testing.T) {
	st := newMapStore()
	square := func(i int, seed uint64) (int, error) { return i * i, nil }
	collect := func(p *Pool) map[int]int {
		var mu sync.Mutex
		got := map[int]int{}
		p.OnJob = func(i int, v any, _ time.Duration) {
			mu.Lock()
			defer mu.Unlock()
			if _, dup := got[i]; dup {
				t.Errorf("OnJob fired twice for job %d", i)
			}
			got[i] = v.(int)
		}
		if _, err := Map(p, 10, square); err != nil {
			t.Fatal(err)
		}
		return got
	}
	check := func(got map[int]int, when string) {
		t.Helper()
		if len(got) != 10 {
			t.Fatalf("%s: OnJob fired for %d of 10 jobs", when, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("%s: OnJob job %d got %d", when, i, v)
			}
		}
	}
	check(collect(storePool(st, 4)), "cold run")
	// Second run: everything is a cache hit, served from the prepass.
	check(collect(storePool(st, 4)), "cached run")
}

// A cached-run OnJob reports zero elapsed; a computed job reports nonzero.
func TestMapOnJobElapsedDistinguishesCacheHits(t *testing.T) {
	st := newMapStore()
	slow := func(i int, seed uint64) (int, error) {
		time.Sleep(time.Millisecond)
		return i, nil
	}
	var mu sync.Mutex
	elapsed := map[int]time.Duration{}
	run := func() {
		p := storePool(st, 2)
		p.OnJob = func(i int, _ any, d time.Duration) {
			mu.Lock()
			elapsed[i] = d
			mu.Unlock()
		}
		if _, err := Map(p, 4, slow); err != nil {
			t.Fatal(err)
		}
	}
	run()
	for i, d := range elapsed {
		if d == 0 {
			t.Fatalf("computed job %d reported zero elapsed", i)
		}
	}
	run()
	for i, d := range elapsed {
		if d != 0 {
			t.Fatalf("cached job %d reported elapsed %v, want 0", i, d)
		}
	}
}
