package exec

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestMapSoftCancelLetsInflightFinish is the graceful-drain contract: once
// SoftContext fires, no new jobs are dispatched, but every attempt already
// running completes, its result is recorded, and Map reports the rest as
// skipped via *CanceledError.
func TestMapSoftCancelLetsInflightFinish(t *testing.T) {
	const n = 16
	soft, drain := context.WithCancelCause(context.Background())
	started := make(chan int, n)
	release := make(chan struct{})
	inflight := make(chan [2]int, 1)
	drainCause := errors.New("test drain")
	// Wait for both workers to be mid-job, then drain and let them finish.
	go func() {
		a, b := <-started, <-started
		drain(drainCause)
		close(release)
		inflight <- [2]int{a, b}
	}()
	p := &Pool{Workers: 2, SoftContext: soft}
	results, err := Map(p, n, func(i int, seed uint64) (int, error) {
		started <- i
		<-release
		return i * 10, nil
	})
	pair := <-inflight
	a, b := pair[0], pair[1]

	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CanceledError", err)
	}
	if !errors.Is(err, drainCause) {
		t.Errorf("cause chain %v does not carry the drain cause", err)
	}
	done := 0
	for _, d := range ce.Done {
		if d {
			done++
		}
	}
	// Exactly the two in-flight jobs completed; nothing new was dispatched.
	if done != 2 || !ce.Done[a] || !ce.Done[b] {
		t.Fatalf("done flags %v (count %d), want exactly jobs %d and %d", ce.Done, done, a, b)
	}
	for _, i := range []int{a, b} {
		if results[i] != i*10 {
			t.Errorf("in-flight job %d result %d, want %d (drain discarded completed work)", i, results[i], i*10)
		}
	}
}

// TestMapSoftCancelPersistsInflightResults is the checkpoint half: jobs that
// complete during a drain land in the store, so a restarted run resumes warm.
func TestMapSoftCancelPersistsInflightResults(t *testing.T) {
	st := newMapStore()
	soft, drain := context.WithCancelCause(context.Background())
	p := storePool(st, 1)
	p.SoftContext = soft
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	go func() {
		<-started
		drain(errors.New("test drain"))
		close(release)
	}()
	_, err := Map(p, 8, func(i int, seed uint64) (int, error) {
		if i == 0 {
			started <- struct{}{}
			<-release
		}
		return i, nil
	})
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CanceledError", err)
	}
	st.mu.Lock()
	stored := len(st.m)
	st.mu.Unlock()
	if stored == 0 {
		t.Fatal("drained sweep persisted nothing; in-flight work was not checkpointed")
	}
	if stored == 8 {
		t.Fatal("drained sweep persisted all jobs; soft cancel did not stop dispatch")
	}
}

// TestMapSoftCancelAfterCompletionIsNotAnError: a drain signal that fires
// once every job has finished must not turn a complete sweep into an
// interrupted one.
func TestMapSoftCancelAfterCompletionIsNotAnError(t *testing.T) {
	soft, drain := context.WithCancelCause(context.Background())
	var ran atomic.Int64
	results, err := Map(&Pool{Workers: 4, SoftContext: soft}, 8, func(i int, seed uint64) (int, error) {
		if ran.Add(1) == 8 {
			drain(errors.New("late drain"))
		}
		return i, nil
	})
	if err != nil {
		t.Fatalf("completed sweep reported %v", err)
	}
	for i, v := range results {
		if v != i {
			t.Fatalf("result[%d] = %d", i, v)
		}
	}
}

// TestMapSoftCancelBeforeStartSkipsEverything: a pool whose drain signal is
// already down dispatches nothing.
func TestMapSoftCancelBeforeStartSkipsEverything(t *testing.T) {
	soft, drain := context.WithCancelCause(context.Background())
	drain(errors.New("already draining"))
	_, err := Map(&Pool{Workers: 4, SoftContext: soft}, 8, func(i int, seed uint64) (int, error) {
		t.Errorf("job %d dispatched after drain", i)
		return 0, nil
	})
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CanceledError", err)
	}
	for i, d := range ce.Done {
		if d {
			t.Errorf("job %d marked done", i)
		}
	}
}

// TestMapHardCancelBeatsSoft: when both signals fire, the hard context's
// cause wins (it is the stronger promise — in-flight work was abandoned).
func TestMapHardCancelBeatsSoft(t *testing.T) {
	hardCause := errors.New("hard cause")
	ctx, cancel := context.WithCancelCause(context.Background())
	soft, drain := context.WithCancelCause(context.Background())
	drain(errors.New("soft cause"))
	cancel(hardCause)
	_, err := Map(&Pool{Workers: 2, Context: ctx, SoftContext: soft}, 4, func(i int, seed uint64) (int, error) {
		return i, nil
	})
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CanceledError", err)
	}
	if !errors.Is(ce.Err, hardCause) {
		t.Fatalf("cause = %v, want the hard context's %v", ce.Err, hardCause)
	}
}

// TestMapSoftCancelDuringTimedJobs exercises soft cancel together with the
// goroutine attempt path that a cancellable Context selects, which uses a
// different code path than the inline fast path.
func TestMapSoftCancelDuringTimedJobs(t *testing.T) {
	soft, drain := context.WithCancelCause(context.Background())
	hard, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	p := &Pool{Workers: 1, Context: hard, SoftContext: soft}
	go func() {
		<-started
		drain(errors.New("test drain"))
		close(release)
	}()
	results, err := Map(p, 4, func(i int, seed uint64) (int, error) {
		if i == 0 {
			started <- struct{}{}
			<-release
		}
		return i + 100, nil
	})
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CanceledError", err)
	}
	if !ce.Done[0] || results[0] != 100 {
		t.Fatalf("in-flight timed job lost: done=%v results[0]=%d", ce.Done, results[0])
	}
}
