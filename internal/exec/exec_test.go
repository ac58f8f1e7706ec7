package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"nvmwear/internal/rng"
)

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		p := &Pool{Workers: workers, BaseSeed: 42}
		got, err := Map(p, 100, func(i int, seed uint64) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmptyJobList(t *testing.T) {
	p := &Pool{}
	got, err := Map(p, 0, func(i int, seed uint64) (int, error) {
		t.Fatal("job ran for empty list")
		return 0, nil
	})
	if err != nil || got != nil {
		t.Fatalf("empty list: results %v, err %v", got, err)
	}
}

func TestMapSeedsMatchSeedStream(t *testing.T) {
	const base = 1234
	p := &Pool{Workers: 4, BaseSeed: base}
	seeds, err := Map(p, 32, func(i int, seed uint64) (uint64, error) {
		return seed, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	distinct := make(map[uint64]bool)
	for i, s := range seeds {
		if want := rng.SeedStream(base, uint64(i)); s != want {
			t.Fatalf("job %d seed = %#x, want %#x", i, s, want)
		}
		distinct[s] = true
	}
	if len(distinct) != len(seeds) {
		t.Fatalf("only %d distinct seeds for %d jobs", len(distinct), len(seeds))
	}
}

func TestMapSeedsIndependentOfWorkerCount(t *testing.T) {
	collect := func(workers int) []uint64 {
		p := &Pool{Workers: workers, BaseSeed: 7}
		seeds, err := Map(p, 16, func(i int, seed uint64) (uint64, error) {
			return seed, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return seeds
	}
	serial, parallel := collect(1), collect(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("job %d: seed differs between -j1 (%#x) and -j8 (%#x)",
				i, serial[i], parallel[i])
		}
	}
}

func TestMapPanicPropagation(t *testing.T) {
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("job panic did not propagate")
		}
		pe, ok := v.(*PanicError)
		if !ok {
			t.Fatalf("recovered %T, want *PanicError", v)
		}
		if pe.Index != 5 || pe.Value != "boom" {
			t.Fatalf("PanicError = {index %d, value %v}", pe.Index, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Fatal("PanicError carries no stack")
		}
	}()
	p := &Pool{Workers: 4}
	Map(p, 10, func(i int, seed uint64) (int, error) {
		if i == 5 {
			panic("boom")
		}
		return i, nil
	})
}

func TestMapErrorLowestIndexWins(t *testing.T) {
	p := &Pool{Workers: 8}
	var started atomic.Int64
	_, err := Map(p, 64, func(i int, seed uint64) (int, error) {
		started.Add(1)
		if i%2 == 1 {
			return 0, fmt.Errorf("job %d failed", i)
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	// Every failing index is odd; the reported one must be the lowest
	// failing index that actually started, and job 1 always starts among
	// the first 8 dispatched with 8 workers.
	if err.Error() != "job 1 failed" {
		t.Fatalf("err = %v, want lowest-index job 1", err)
	}
	if started.Load() > 64 {
		t.Fatalf("%d jobs started for a 64-job sweep", started.Load())
	}
}

func TestMapErrorStopsUnstartedJobs(t *testing.T) {
	p := &Pool{Workers: 1}
	var started atomic.Int64
	_, err := Map(p, 1000, func(i int, seed uint64) (int, error) {
		started.Add(1)
		if i == 2 {
			return 0, errors.New("stop here")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if started.Load() != 3 {
		t.Fatalf("%d jobs started after early error with 1 worker, want 3", started.Load())
	}
}

func TestMapProgressCallback(t *testing.T) {
	p := &Pool{Workers: 4}
	var calls atomic.Int64
	var lastDone atomic.Int64
	p.OnDone = func(done, total int, elapsed time.Duration) {
		calls.Add(1)
		if total != 20 {
			t.Errorf("total = %d, want 20", total)
		}
		if elapsed < 0 {
			t.Errorf("negative elapsed %v", elapsed)
		}
		// done is monotonically increasing because calls are serialized.
		if int64(done) <= lastDone.Load() {
			t.Errorf("done went from %d to %d", lastDone.Load(), done)
		}
		lastDone.Store(int64(done))
	}
	if _, err := Map(p, 20, func(i int, seed uint64) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 20 {
		t.Fatalf("OnDone called %d times, want 20", calls.Load())
	}
}

func TestPoolDefaultWorkers(t *testing.T) {
	p := &Pool{}
	if got := p.workers(1 << 20); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("default workers = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	capped := &Pool{Workers: 16}
	if got := capped.workers(2); got != 2 {
		t.Fatalf("16 workers for 2 jobs = %d, want cap at 2", got)
	}
}

func TestMapContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{Workers: 2, Context: ctx}
	release := make(chan struct{})
	results, err := Map(p, 100, func(i int, seed uint64) (int, error) {
		if i < 4 {
			return i * 10, nil
		}
		if i == 4 {
			cancel()
		}
		<-release // block until the sweep is torn down
		return i * 10, nil
	})
	close(release)
	if err == nil {
		t.Fatal("cancelled sweep returned nil error")
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %T %v, want *CanceledError", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CanceledError does not unwrap to context.Canceled: %v", err)
	}
	if len(ce.Done) != 100 {
		t.Fatalf("Done has %d entries, want 100", len(ce.Done))
	}
	for i, d := range ce.Done {
		if d && results[i] != i*10 {
			t.Fatalf("job %d marked done but result %d", i, results[i])
		}
		if i >= 5 && d {
			t.Fatalf("job %d done after cancellation before it could start", i)
		}
	}
	// The worker that reached job 4 had already recorded every job it ran
	// before, so at most one of jobs 0..3 (the other worker's in-flight job
	// at the instant of cancellation) may be abandoned.
	recorded := 0
	for i := 0; i < 4; i++ {
		if ce.Done[i] {
			recorded++
		}
	}
	if recorded < 3 {
		t.Fatalf("only %d of jobs 0..3 marked done; at most one may be in flight at cancel", recorded)
	}
}

func TestMapContextCancellationSkipsUnstarted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the sweep starts
	p := &Pool{Workers: 4, Context: ctx}
	var started atomic.Int64
	_, err := Map(p, 50, func(i int, seed uint64) (int, error) {
		started.Add(1)
		return i, nil
	})
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CanceledError", err)
	}
	if started.Load() != 0 {
		t.Fatalf("%d jobs started on a pre-cancelled context", started.Load())
	}
}

func TestMapShortCircuitConcurrent(t *testing.T) {
	// With many workers and an early failure, the index dispenser must stop
	// handing out jobs: far fewer than n jobs start.
	p := &Pool{Workers: 4}
	var started atomic.Int64
	_, err := Map(p, 10000, func(i int, seed uint64) (int, error) {
		started.Add(1)
		if i == 0 {
			return 0, errors.New("first job fails")
		}
		time.Sleep(100 * time.Microsecond)
		return i, nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if s := started.Load(); s > 200 {
		t.Fatalf("%d jobs started after an immediate failure", s)
	}
}
