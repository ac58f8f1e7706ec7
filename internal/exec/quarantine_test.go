package exec

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// These tests pin the Quarantine contract: with the callback set, a failing
// or panicking job is reported and isolated — the sweep completes, progress
// reaches the total, the bad slot stays zero and is never cached — while
// cancellation keeps its abort semantics untouched.

func TestMapQuarantineIsolatesErrors(t *testing.T) {
	for _, workers := range []int{1, 8} {
		var quarantined []int
		var causes []error
		p := &Pool{Workers: workers}
		p.Quarantine = func(i int, err error) {
			quarantined = append(quarantined, i)
			causes = append(causes, err)
		}
		var doneCalls atomic.Int64
		var lastDone atomic.Int64
		p.OnDone = func(done, total int, elapsed time.Duration) {
			doneCalls.Add(1)
			lastDone.Store(int64(done))
		}
		got, err := Map(p, 20, func(i int, seed uint64) (int, error) {
			if i == 3 || i == 11 {
				return 0, fmt.Errorf("device %d died", i)
			}
			return i * 10, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: quarantined sweep returned error %v", workers, err)
		}
		if len(quarantined) != 2 {
			t.Fatalf("workers=%d: quarantined %v, want jobs 3 and 11", workers, quarantined)
		}
		for k, i := range quarantined {
			if i != 3 && i != 11 {
				t.Fatalf("workers=%d: quarantined job %d", workers, i)
			}
			if want := fmt.Sprintf("device %d died", i); causes[k].Error() != want {
				t.Fatalf("job %d cause = %v, want %q", i, causes[k], want)
			}
		}
		// Progress must account for quarantined jobs: done reaches the total.
		if doneCalls.Load() != 20 || lastDone.Load() != 20 {
			t.Fatalf("workers=%d: OnDone fired %d times, last done %d; want 20/20",
				workers, doneCalls.Load(), lastDone.Load())
		}
		for i, v := range got {
			want := i * 10
			if i == 3 || i == 11 {
				want = 0 // quarantined slots keep the zero value
			}
			if v != want {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, want)
			}
		}
	}
}

func TestMapQuarantineCatchesPanics(t *testing.T) {
	var quarantined []error
	p := &Pool{Workers: 4}
	p.Quarantine = func(i int, err error) { quarantined = append(quarantined, err) }
	got, err := Map(p, 10, func(i int, seed uint64) (int, error) {
		if i == 5 {
			panic("poisoned device")
		}
		return i, nil
	})
	if err != nil {
		t.Fatalf("sweep with a quarantined panic returned error %v", err)
	}
	if len(quarantined) != 1 {
		t.Fatalf("quarantine reported %d failures, want 1", len(quarantined))
	}
	var pe *PanicError
	if !errors.As(quarantined[0], &pe) {
		t.Fatalf("quarantined cause is %T, want *PanicError", quarantined[0])
	}
	if pe.Index != 5 || pe.Value != "poisoned device" {
		t.Fatalf("PanicError = {index %d, value %v}", pe.Index, pe.Value)
	}
	for i, v := range got {
		want := i
		if i == 5 {
			want = 0
		}
		if v != want {
			t.Fatalf("result[%d] = %d, want %d", i, v, want)
		}
	}
}

func TestMapQuarantinedJobNotCached(t *testing.T) {
	st := newMapStore()
	p := storePool(st, 2)
	p.Quarantine = func(i int, err error) {}
	if _, err := Map(p, 6, func(i int, seed uint64) (int, error) {
		if i == 2 {
			return 0, errors.New("bad")
		}
		return i, nil
	}); err != nil {
		t.Fatal(err)
	}
	if st.puts != 5 {
		t.Fatalf("%d puts, want 5 (quarantined job must not be cached)", st.puts)
	}
	if _, ok := st.m["job-2"]; ok {
		t.Fatal("quarantined job's key present in the store")
	}
	// A later run with the same store must re-attempt the quarantined job.
	var reran atomic.Int64
	p2 := storePool(st, 2)
	p2.Quarantine = func(i int, err error) { t.Errorf("job %d quarantined on retry run", i) }
	if _, err := Map(p2, 6, func(i int, seed uint64) (int, error) {
		reran.Add(1)
		if i != 2 {
			t.Errorf("cached job %d recomputed", i)
		}
		return i, nil
	}); err != nil {
		t.Fatal(err)
	}
	if reran.Load() != 1 {
		t.Fatalf("%d jobs ran on the warm retry, want exactly the quarantined one", reran.Load())
	}
}

func TestMapQuarantineAfterRetryBudget(t *testing.T) {
	var quarantined atomic.Int64
	p := &Pool{Workers: 1, Retries: 2}
	p.Quarantine = func(i int, err error) {
		quarantined.Add(1)
		if !IsRetryable(err) {
			t.Errorf("quarantined cause lost its retryable marker: %v", err)
		}
	}
	var attempts atomic.Int64
	if _, err := Map(p, 1, func(i int, seed uint64) (int, error) {
		attempts.Add(1)
		return 0, Retryable(errors.New("always flaky"))
	}); err != nil {
		t.Fatal(err)
	}
	if attempts.Load() != 3 {
		t.Fatalf("%d attempts before quarantine, want initial + 2 retries", attempts.Load())
	}
	if quarantined.Load() != 1 {
		t.Fatalf("quarantine fired %d times, want once after the budget", quarantined.Load())
	}
}

func TestMapQuarantineDoesNotSwallowCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{Workers: 1, Context: ctx}
	p.Quarantine = func(i int, err error) {
		t.Errorf("cancellation quarantined job %d: %v", i, err)
	}
	_, err := Map(p, 100, func(i int, seed uint64) (int, error) {
		if i == 3 {
			cancel()
		}
		return i, nil
	})
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CanceledError — Quarantine must not absorb cancellation", err)
	}
}
