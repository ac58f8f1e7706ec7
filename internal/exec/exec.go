// Package exec is the parallel experiment engine: a bounded worker pool
// that fans a flat list of independent simulation jobs out across cores
// and returns their results in submission order.
//
// Every data-bearing figure of the paper is a sweep of independent
// lifetime or timing runs (each drives its own nvm.Device and wl.Leveler),
// so the sweeps are embarrassingly parallel. Two rules keep parallel runs
// exactly reproducible:
//
//  1. Results are delivered in submission order, so figure tables are
//     byte-identical whatever the worker count or scheduling.
//  2. Each job receives a seed derived deterministically from
//     (BaseSeed, job index) via rng.SeedStream, so a job's random streams
//     do not depend on which worker runs it or when.
//
// The pool is additionally context-aware: a sweep can be cancelled mid-run
// (Pool.Context — wlsim wires SIGINT/SIGTERM to this) or drained
// (Pool.SoftContext), and either reports which jobs completed via
// *CanceledError so callers can flush partial results. Each job gets one
// attempt; a failure either ends the sweep or, with Pool.Quarantine, is
// isolated to its own slot.
//
// Two optional refinements change how jobs are scheduled without changing
// what Map returns:
//
//   - Pool.Store + Pool.Key memoize job results in a durable store
//     (internal/store). Jobs whose key already resolves to a stored result
//     bypass the workers entirely — the cached value is decoded straight
//     into the result slice and OnDone still fires (elapsed 0), so
//     progress and telemetry stay truthful. Completed jobs are written
//     back best-effort; a failed write only means a future recompute.
//     This is what turns an interrupted sweep into a checkpoint: the next
//     run re-executes only the missing jobs.
//   - Pool.Cost dispatches pending jobs longest-first, tightening the
//     parallel tail when job durations vary widely. Results are still
//     delivered in submission order.
package exec

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nvmwear/internal/rng"
)

// Store memoizes completed job results across process lifetimes. Get
// returns the payload stored under key and whether one exists; Put stores
// a payload durably. Implementations must verify integrity internally (a
// corrupt entry reads as a miss, never as data) — internal/store.Store is
// the canonical implementation.
type Store interface {
	Get(key string) ([]byte, bool)
	Put(key string, payload []byte) error
}

// Pool describes how a sweep executes. The zero value is usable: every
// available core, base seed 0, no progress reporting, no cancellation.
type Pool struct {
	// Workers bounds the number of concurrently running jobs.
	// Values <= 0 select runtime.GOMAXPROCS(0).
	Workers int

	// BaseSeed is the sweep's base seed; job i runs with
	// rng.SeedStream(BaseSeed, i).
	BaseSeed uint64

	// OnDone, when non-nil, is called after each job finishes with the
	// number of completed jobs so far, the sweep size, and the job's wall
	// time. Calls are serialized; the callback must not block for long.
	OnDone func(done, total int, elapsed time.Duration)

	// OnJob, when non-nil, is called with each job's index, result value and
	// wall time as the result lands — cache-prepass hits included (elapsed
	// 0). Unlike OnDone it identifies which job finished and carries the
	// value, so callers can stream per-job output (pipeline rendering)
	// instead of waiting for Map to return. Calls are serialized with
	// OnDone; the callback must not block for long. Jobs arrive in
	// completion order, not index order.
	OnJob func(index int, result any, elapsed time.Duration)

	// Context, when non-nil, cancels the sweep: unstarted jobs are skipped,
	// in-flight jobs are abandoned, and Map returns a *CanceledError
	// recording which jobs completed. A nil Context never cancels.
	Context context.Context

	// SoftContext, when non-nil, is the sweep's graceful-drain signal: once
	// it is done, no further jobs are dispatched, but in-flight attempts run
	// to completion — their results are recorded (and persisted via Store),
	// so a drained sweep checkpoints every job already burning CPU instead
	// of discarding it the way Context does. If any job was skipped, Map
	// returns a *CanceledError carrying the soft context's cause. A sweep
	// whose jobs all complete before the signal is observed returns
	// normally. wlsim serve wires its shutdown drain here; Context remains
	// the hard force-cancel behind it.
	SoftContext context.Context

	// Store, together with Key, memoizes job results across runs. Before
	// dispatching, Map probes the store for every job's key; hits are
	// decoded into the result slice without running the job (OnDone fires
	// with elapsed 0). Jobs that do run have their results written back.
	// Results are encoded with encoding/gob, so the job's result type must
	// be gob-encodable (exported fields). A nil Store disables caching.
	Store Store

	// Key returns job i's cache key. Jobs whose key is "" are never
	// cached. A nil Key disables caching. The key must capture everything
	// the job's result depends on (parameters, seed, code version) — a
	// stale key silently resurrects stale results.
	Key func(i int) string

	// Cost, when non-nil, supplies a relative duration hint per job; Map
	// dispatches pending jobs in descending Cost order (ties keep
	// submission order) so long jobs start first and the parallel tail
	// stays short. Purely a scheduling hint: results, seeds, and error
	// determinism are unaffected.
	Cost func(i int) float64

	// Quarantine, when non-nil, switches the pool from abort-on-first-error
	// to per-job failure isolation: a job that fails — or panics — no
	// longer stops the sweep. The failure is reported to the callback
	// instead (panics arrive as a *PanicError), the job's slot in the
	// result slice keeps the zero value, and the remaining jobs run
	// normally. OnDone still fires for a quarantined job so progress reaches
	// the sweep total, but OnJob does not, nothing is written to Store, and
	// the job reads as not-done in any later *CanceledError. Cancellation is
	// not a job failure: Context/SoftContext still end the sweep with a
	// *CanceledError. Calls are serialized with OnDone/OnJob.
	Quarantine func(index int, err error)
}

// workers resolves the effective worker count for n jobs.
func (p *Pool) workers(n int) int {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// context resolves the effective context.
func (p *Pool) context() context.Context {
	if p.Context != nil {
		return p.Context
	}
	return context.Background()
}

// softDone reports whether the graceful-drain signal has fired.
func (p *Pool) softDone() bool {
	return p.SoftContext != nil && p.SoftContext.Err() != nil
}

// PanicError carries a panic raised inside a job to the goroutine that
// called Map, preserving the job index and the worker's stack trace.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("exec: job %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// CanceledError reports a sweep cut short by Pool.Context. Done records,
// per job index, whether that job completed and its result slot is valid —
// callers flush the completed prefix as a partial table.
type CanceledError struct {
	Done []bool
	Err  error // the context's cancellation cause
}

// Error implements error.
func (e *CanceledError) Error() string {
	n := 0
	for _, d := range e.Done {
		if d {
			n++
		}
	}
	return fmt.Sprintf("exec: sweep canceled (%v) with %d/%d jobs complete", e.Err, n, len(e.Done))
}

// Unwrap exposes the cancellation cause (context.Canceled etc).
func (e *CanceledError) Unwrap() error { return e.Err }

// Map runs jobs 0..n-1 through fn on the pool and returns the n results in
// index order. fn receives the job index and the job's derived seed.
//
// Each job runs once. If a job returns an error, remaining unstarted jobs
// are skipped and the error of the earliest-dispatched failing job is
// returned (deterministic regardless of scheduling; with no Cost hint,
// dispatch order is submission order, so the lowest failing index wins).
// If the pool's context is cancelled, Map stops dispatching, abandons
// in-flight jobs, and returns a *CanceledError whose Done slice marks the
// valid entries of the result slice. If a job panics, Map re-panics on the
// calling goroutine with a *PanicError wrapping the original value and the
// worker's stack.
func Map[T any](p *Pool, n int, fn func(index int, seed uint64) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	ctx := p.context()
	results := make([]T, n)
	doneFlags := make([]bool, n)
	var (
		next     atomic.Int64 // dispatch-position dispenser
		stop     atomic.Bool  // set on first error/panic: skip unstarted jobs
		mu       sync.Mutex   // guards done/firstErr/errPos/pan and OnDone calls
		done     int
		firstErr error
		pan      *PanicError
		panPos   int
		wg       sync.WaitGroup
	)
	next.Store(-1)

	// Cache prepass: resolve every job whose result is already stored,
	// firing OnDone for each so progress stays truthful, then collect the
	// jobs that actually need to run. Runs before the workers start, so
	// the shared state needs no locking yet.
	caching := p.Store != nil && p.Key != nil
	pending := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if caching && ctx.Err() == nil {
			if key := p.Key(i); key != "" {
				if data, ok := p.Store.Get(key); ok {
					if v, ok := decodeResult[T](data); ok {
						results[i] = v
						doneFlags[i] = true
						done++
						if p.OnDone != nil {
							p.OnDone(done, n, 0)
						}
						if p.OnJob != nil {
							p.OnJob(i, v, 0)
						}
						continue
					}
					// Stored bytes that no longer decode as T (result-type
					// drift the key salt missed): recompute and overwrite.
				}
			}
		}
		pending = append(pending, i)
	}
	errPos := len(pending)

	// Longest-job-first: dispatch pending jobs by descending cost hint.
	// Stable, so equal-cost jobs keep submission order.
	if p.Cost != nil && len(pending) > 1 {
		sort.SliceStable(pending, func(a, b int) bool {
			return p.Cost(pending[a]) > p.Cost(pending[b])
		})
	}

	// attempt runs fn once for job i. When the context can cancel the
	// attempt, fn runs on its own goroutine and writes its result through a
	// channel — an abandoned attempt therefore never touches the shared
	// results slice.
	attempt := func(i int, seed uint64) (T, error) {
		if err := ctx.Err(); err != nil {
			// Cancelled between dispatch and attempt: don't start work that
			// would immediately be abandoned.
			var zero T
			return zero, context.Cause(ctx)
		}
		if ctx.Done() == nil {
			return fn(i, seed)
		}
		type outcome struct {
			v   T
			err error
			pan *PanicError
		}
		ch := make(chan outcome, 1)
		go func() {
			defer func() {
				if v := recover(); v != nil {
					ch <- outcome{pan: &PanicError{Index: i, Value: v, Stack: stack()}}
				}
			}()
			v, err := fn(i, seed)
			ch <- outcome{v: v, err: err}
		}()
		// take consumes a delivered outcome, re-raising job panics.
		take := func(out outcome) (T, error) {
			if out.pan != nil {
				panic(out.pan.Value) // re-raised; worker's recover records it
			}
			return out.v, out.err
		}
		select {
		case out := <-ch:
			return take(out)
		case <-ctx.Done():
			select {
			case out := <-ch:
				// Finished before we observed the cancellation: keep the
				// result — it still gets recorded (and cached), which is
				// exactly what checkpoint/resume wants.
				return take(out)
			default:
			}
			var zero T
			return zero, context.Cause(ctx)
		}
	}

	// quarantine reports a failed job without stopping the sweep: progress
	// advances (the job is accounted for), but its result slot stays zero,
	// its done flag stays false, and nothing is cached.
	quarantine := func(i int, qerr error, elapsed time.Duration) {
		mu.Lock()
		done++
		if p.OnDone != nil {
			p.OnDone(done, n, elapsed)
		}
		p.Quarantine(i, qerr)
		mu.Unlock()
	}

	run := func(pos, i int) (err error) {
		start := time.Now()
		defer func() {
			if v := recover(); v != nil {
				pe, ok := v.(*PanicError)
				if !ok {
					pe = &PanicError{Index: i, Value: v, Stack: stack()}
				}
				if p.Quarantine != nil {
					quarantine(i, pe, time.Since(start))
					err = nil
					return
				}
				mu.Lock()
				if pan == nil || pos < panPos {
					pan, panPos = pe, pos
				}
				mu.Unlock()
				stop.Store(true)
			}
		}()
		v, err := attempt(i, rng.SeedStream(p.BaseSeed, uint64(i)))
		if err != nil {
			if ctx.Err() != nil {
				return context.Cause(ctx)
			}
			if p.Quarantine != nil {
				quarantine(i, err, time.Since(start))
				return nil
			}
			return err
		}
		if caching {
			if key := p.Key(i); key != "" {
				if data, eerr := encodeResult(v); eerr == nil {
					// Best effort: a failed write only costs a future
					// recompute, never a wrong result.
					p.Store.Put(key, data)
				}
			}
		}
		results[i] = v
		mu.Lock()
		doneFlags[i] = true
		done++
		if p.OnDone != nil {
			p.OnDone(done, n, time.Since(start))
		}
		if p.OnJob != nil {
			p.OnJob(i, v, time.Since(start))
		}
		mu.Unlock()
		return nil
	}

	for w := p.workers(len(pending)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				pos := int(next.Add(1))
				if pos >= len(pending) || stop.Load() || ctx.Err() != nil || p.softDone() {
					return
				}
				i := pending[pos]
				if err := run(pos, i); err != nil {
					if ctx.Err() == nil {
						mu.Lock()
						if pos < errPos {
							errPos, firstErr = pos, err
						}
						mu.Unlock()
						stop.Store(true)
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	if pan != nil {
		panic(pan)
	}
	if firstErr != nil {
		return results, firstErr
	}
	if ctx.Err() != nil {
		return results, &CanceledError{Done: doneFlags, Err: context.Cause(ctx)}
	}
	// A drain that fired only after every job completed is not an
	// interruption: the sweep's results are whole.
	if p.softDone() && done < n {
		return results, &CanceledError{Done: doneFlags, Err: context.Cause(p.SoftContext)}
	}
	return results, nil
}

// encodeResult serializes a job result for Pool.Store.
func encodeResult(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeResult deserializes a stored job result. A payload that does not
// decode cleanly as T reports false and the job recomputes.
func decodeResult[T any](data []byte) (T, bool) {
	var v T
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&v); err != nil {
		var zero T
		return zero, false
	}
	return v, true
}

// stack returns the current goroutine's stack trace.
func stack() []byte {
	buf := make([]byte, 16<<10)
	return buf[:runtime.Stack(buf, false)]
}
