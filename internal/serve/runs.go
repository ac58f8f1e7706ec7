package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"nvmwear"
)

// State is a run's position in its lifecycle.
type State string

// The run states. Terminal states are done, failed, and canceled.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// terminal reports whether a run in this state will never change again.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Spec is the client-supplied description of a run — the POST /runs body.
// Zero fields take the server's defaults.
type Spec struct {
	Experiment string  `json:"experiment"`
	Scale      string  `json:"scale,omitempty"`   // preset name (tiny|small|medium|large)
	Seed       *uint64 `json:"seed,omitempty"`    // nil = server default
	Shards     int     `json:"shards,omitempty"`  // 0 = server default
	Scheme     string  `json:"scheme,omitempty"`  // sweep experiment's scheme
	Wear       string  `json:"wear,omitempty"`    // wear model; "" = server default
	Timeout    string  `json:"timeout,omitempty"` // per-run deadline, time.ParseDuration syntax
	Format     string  `json:"format,omitempty"`  // artifact format: text|csv|json
}

// run is one submitted experiment run: the unit the queue schedules, the
// SSE hub streams, and /runs/{id} reports. All mutable fields are guarded
// by mu; the worker goroutine is the only writer of state transitions, but
// HTTP handlers read concurrently and DELETE cancels concurrently.
type run struct {
	id   string
	spec Spec

	mu         sync.Mutex
	state      State
	errMsg     string
	panicked   bool
	queuedAt   time.Time
	startedAt  time.Time
	finishedAt time.Time
	done       int // completed sweep jobs
	total      int
	cancel     context.CancelCauseFunc // non-nil while running
	out        bytes.Buffer            // rendered tables + summary (the CLI's stdout)
	logBuf     bytes.Buffer            // per-run diagnostics (the CLI's stderr)
	svgs       map[string][]byte       // rendered figures by file name
	canceledBy string                  // non-empty once DELETE requested cancellation

	hub *hub

	// Resolved at admission so a bad request fails before it queues.
	scale   nvmwear.Scale
	timeout time.Duration
}

// ErrCanceled is the cancellation cause of a client-requested DELETE.
var ErrCanceled = errors.New("run canceled by client request")

// runView is the JSON shape of a run in every response and state event.
type runView struct {
	ID         string   `json:"id"`
	Experiment string   `json:"experiment"`
	Scale      string   `json:"scale"`
	Seed       uint64   `json:"seed"`
	Shards     int      `json:"shards,omitempty"`
	Wear       string   `json:"wear,omitempty"`
	State      State    `json:"state"`
	Error      string   `json:"error,omitempty"`
	Panicked   bool     `json:"panicked,omitempty"`
	JobsDone   int      `json:"jobsDone"`
	JobsTotal  int      `json:"jobsTotal"`
	QueuedAt   string   `json:"queuedAt,omitempty"`
	StartedAt  string   `json:"startedAt,omitempty"`
	FinishedAt string   `json:"finishedAt,omitempty"`
	Artifacts  []string `json:"artifacts,omitempty"`
}

func stamp(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// view snapshots the run for JSON delivery.
func (r *run) view() runView {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := runView{
		ID:         r.id,
		Experiment: r.spec.Experiment,
		Scale:      r.scale.Name,
		Seed:       r.scale.Seed,
		Shards:     r.scale.Shards,
		Wear:       r.scale.WearModel,
		State:      r.state,
		Error:      r.errMsg,
		Panicked:   r.panicked,
		JobsDone:   r.done,
		JobsTotal:  r.total,
		QueuedAt:   stamp(r.queuedAt),
		StartedAt:  stamp(r.startedAt),
		FinishedAt: stamp(r.finishedAt),
	}
	if r.state.terminal() {
		v.Artifacts = r.artifactNamesLocked()
	}
	return v
}

func (r *run) artifactNamesLocked() []string {
	names := []string{"output.txt", "log.txt"}
	for name := range r.svgs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// artifact returns a named artifact's bytes and content type.
func (r *run) artifact(name string) ([]byte, string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch name {
	case "output.txt":
		return append([]byte(nil), r.out.Bytes()...), "text/plain; charset=utf-8", true
	case "log.txt":
		return append([]byte(nil), r.logBuf.Bytes()...), "text/plain; charset=utf-8", true
	default:
		if b, ok := r.svgs[name]; ok {
			return b, "image/svg+xml", true
		}
	}
	return nil, "", false
}

// logf is the run's Scale.Logf sink: per-run diagnostics land in the run's
// own buffer, so concurrent runs never interleave lines.
func (r *run) logf(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fmt.Fprintf(&r.logBuf, format+"\n", args...)
}

// outWriter returns an io.Writer appending to the run's output artifact
// under the run's lock.
func (r *run) outWriter() *lockedWriter { return &lockedWriter{r: r} }

type lockedWriter struct{ r *run }

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.r.mu.Lock()
	defer w.r.mu.Unlock()
	return w.r.out.Write(p)
}

// start transitions queued -> running and installs the cancel hook.
func (r *run) start(cancel context.CancelCauseFunc) {
	r.mu.Lock()
	r.state = StateRunning
	r.startedAt = time.Now()
	r.cancel = cancel
	// A DELETE that raced admission: honor it now that a cancel exists.
	if r.canceledBy != "" {
		cancel(ErrCanceled)
	}
	r.mu.Unlock()
	r.publishState()
}

// setProgress records sweep progress and streams it.
func (r *run) setProgress(done, total int) {
	r.mu.Lock()
	r.done, r.total = done, total
	r.mu.Unlock()
	r.hub.publish(Event{Type: "progress", Data: map[string]int{"done": done, "total": total}})
}

// setRendered captures the run's rendered artifacts (invoked by the
// driver's Rendered sink, including for the partial render of an
// interrupted run).
func (r *run) setRendered(tables []nvmwear.Table, svgs []nvmwear.SVG) {
	rendered := map[string][]byte{}
	for _, g := range svgs {
		var b bytes.Buffer
		if err := g.WriteSVG(&b); err == nil {
			rendered[g.Name+".svg"] = b.Bytes()
		}
	}
	r.mu.Lock()
	r.svgs = rendered
	r.mu.Unlock()
}

// requestCancel is DELETE /runs/{id}: cancel a queued or running run. It
// reports whether the request was accepted (false once terminal).
func (r *run) requestCancel() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state.terminal() {
		return false
	}
	r.canceledBy = "client"
	if r.cancel != nil {
		r.cancel(ErrCanceled)
	}
	return true
}

// finish records the run's terminal state from RunAt's error and ends
// the event stream. An interrupted sweep (drain, deadline, DELETE) counts
// as canceled — its partial artifacts remain downloadable; any other error
// is a failure.
func (r *run) finish(err error) {
	r.mu.Lock()
	r.finishedAt = time.Now()
	r.cancel = nil
	switch {
	case err == nil:
		r.state = StateDone
	case errors.Is(err, nvmwear.ErrInterrupted):
		r.state = StateCanceled
		r.errMsg = err.Error()
	default:
		r.state = StateFailed
		r.errMsg = err.Error()
	}
	r.mu.Unlock()
	r.publishState()
	r.hub.close()
}

// finishPanic quarantines a run whose experiment panicked: the run is
// failed, the panic value and stack are preserved in the run log, and the
// server keeps serving.
func (r *run) finishPanic(v any, stack []byte) {
	r.mu.Lock()
	r.finishedAt = time.Now()
	r.cancel = nil
	r.state = StateFailed
	r.panicked = true
	r.errMsg = fmt.Sprintf("experiment panicked: %v", v)
	fmt.Fprintf(&r.logBuf, "panic: %v\n\n%s\n", v, stack)
	r.mu.Unlock()
	r.publishState()
	r.hub.close()
}

// finishCanceledBeforeStart ends a run the queue never started (server
// drained first).
func (r *run) finishCanceledBeforeStart(reason string) {
	r.mu.Lock()
	r.finishedAt = time.Now()
	r.state = StateCanceled
	r.errMsg = reason
	r.mu.Unlock()
	r.publishState()
	r.hub.close()
}

func (r *run) publishState() {
	r.hub.publish(Event{Type: "state", Data: r.view()})
}

// dedupeKey is the spec identity used to coalesce concurrent duplicate
// submissions onto one run: same experiment, resolved scale, seed, shard
// layout, scheme and wear model means byte-identical work.
func (r *run) dedupeKey() string {
	return fmt.Sprintf("%s|%s|%d|%d|%s|%s|%s",
		r.spec.Experiment, r.scale.Name, r.scale.Seed, r.scale.Shards, r.spec.Scheme, r.scale.WearModel, r.spec.Format)
}

// runSet is the server's run registry.
type runSet struct {
	mu     sync.Mutex
	seq    int
	byID   map[string]*run
	order  []*run
	active map[string]*run // dedupeKey -> queued/running run
}

func newRunSet() *runSet {
	return &runSet{byID: map[string]*run{}, active: map[string]*run{}}
}

// add registers a new run, assigning its ID. If an active run with the
// same dedupe key exists, that run is returned instead and the new one is
// discarded (coalesced submission: N clients, one compute).
func (rs *runSet) add(r *run) (actual *run, coalesced bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if prev, ok := rs.active[r.dedupeKey()]; ok {
		return prev, true
	}
	rs.seq++
	r.id = fmt.Sprintf("r%06d", rs.seq)
	r.queuedAt = time.Now()
	r.state = StateQueued
	rs.byID[r.id] = r
	rs.order = append(rs.order, r)
	rs.active[r.dedupeKey()] = r
	return r, false
}

// remove rolls a just-added run back out entirely — admission failed after
// the add (queue full), so the run must not remain visible.
func (rs *runSet) remove(r *run) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	delete(rs.byID, r.id)
	if rs.active[r.dedupeKey()] == r {
		delete(rs.active, r.dedupeKey())
	}
	for i, o := range rs.order {
		if o == r {
			rs.order = append(rs.order[:i], rs.order[i+1:]...)
			break
		}
	}
}

// release drops a run from the active (dedupe) index once it reaches a
// terminal state.
func (rs *runSet) release(r *run) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.active[r.dedupeKey()] == r {
		delete(rs.active, r.dedupeKey())
	}
}

func (rs *runSet) get(id string) (*run, bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	r, ok := rs.byID[id]
	return r, ok
}

// list returns every run in submission order.
func (rs *runSet) list() []*run {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return append([]*run(nil), rs.order...)
}

// counts tallies runs by state for /healthz.
func (rs *runSet) counts() map[State]int {
	out := map[State]int{}
	for _, r := range rs.list() {
		r.mu.Lock()
		out[r.state]++
		r.mu.Unlock()
	}
	return out
}
