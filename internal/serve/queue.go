package serve

import (
	"context"
	"fmt"
	"net/http"
	"runtime/debug"
	"time"

	"nvmwear"
)

// admitError is an admission rejection with its HTTP status.
type admitError struct {
	status int
	msg    string
	retry  bool // set Retry-After: transient, come back
}

func (e *admitError) Error() string { return e.msg }

// resolve validates a Spec against the registry and the server's defaults,
// producing the run ready to queue. Every rejection happens here, before
// the run exists — a queued run is always executable.
func (s *Server) resolve(spec Spec) (*run, *admitError) {
	e, ok := nvmwear.LookupExperiment(spec.Experiment)
	if !ok {
		return nil, &admitError{http.StatusNotFound, fmt.Sprintf("unknown experiment %q", spec.Experiment), false}
	}
	scaleName := spec.Scale
	if scaleName == "" {
		scaleName = s.cfg.Scale
	}
	sc, err := nvmwear.ScaleByName(scaleName)
	if err != nil {
		return nil, &admitError{http.StatusBadRequest, err.Error(), false}
	}
	sc.Seed = s.cfg.Seed
	if spec.Seed != nil {
		sc.Seed = *spec.Seed
	}
	sc.Parallelism = s.cfg.Parallelism
	shards := spec.Shards
	if shards == 0 {
		shards = s.cfg.Shards
	}
	if shards < 0 || shards > nvmwear.MaxShards {
		return nil, &admitError{http.StatusBadRequest,
			fmt.Sprintf("shards %d out of range [1,%d]", shards, nvmwear.MaxShards), false}
	}
	sc.Shards = shards
	if err := nvmwear.CheckScheme(spec.Scheme); err != nil {
		return nil, &admitError{http.StatusBadRequest, err.Error(), false}
	}
	sc.SweepScheme = nvmwear.SchemeKind(spec.Scheme)
	wear := spec.Wear
	if wear == "" {
		wear = s.cfg.Wear
	}
	if err := nvmwear.CheckWearModel(wear); err != nil {
		return nil, &admitError{http.StatusBadRequest, err.Error(), false}
	}
	sc.WearModel = wear
	format := spec.Format
	if format == "" {
		format = s.cfg.Format
	}
	if err := nvmwear.CheckFormat(format); err != nil {
		return nil, &admitError{http.StatusBadRequest, err.Error(), false}
	}
	spec.Format = format
	timeout := s.cfg.RunTimeout
	if spec.Timeout != "" {
		d, err := time.ParseDuration(spec.Timeout)
		if err != nil || d <= 0 {
			return nil, &admitError{http.StatusBadRequest, fmt.Sprintf("bad timeout %q", spec.Timeout), false}
		}
		timeout = d
	}
	// Per-run job cap: reject sweeps whose planned job count exceeds the
	// server's budget before they occupy a queue slot. Same message shape
	// as the CLI's pre-run validation (nvmwear.PlanCapError).
	if s.cfg.MaxRunJobs > 0 {
		if n := len(e.Plan(sc)); n > s.cfg.MaxRunJobs {
			return nil, &admitError{http.StatusUnprocessableEntity,
				nvmwear.PlanCapError(spec.Experiment, n, sc.Name, s.cfg.MaxRunJobs).Error(), false}
		}
	}
	return &run{spec: spec, scale: sc, timeout: timeout, hub: newHub()}, nil
}

// admit queues a resolved run, applying backpressure. Returns the admitted
// (or coalesced) run. Admission is serialized under s.mu, which makes the
// capacity check and the enqueue atomic with respect to other admissions;
// workers only ever shrink the queue, so the send below cannot block.
func (s *Server) admit(r *run) (*run, bool, *admitError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false, &admitError{http.StatusServiceUnavailable, "server is draining", false}
	}
	actual, coalesced := s.runs.add(r)
	if coalesced {
		return actual, true, nil
	}
	if len(s.queue) == cap(s.queue) {
		s.runs.remove(r)
		return nil, false, &admitError{http.StatusServiceUnavailable,
			fmt.Sprintf("run queue full (%d queued)", cap(s.queue)), true}
	}
	s.queue <- r
	return r, false, nil
}

// worker executes queued runs until the drain signal; it then cancels
// whatever is still queued (those runs never started — their state says
// so) and exits, letting finishDrain observe completion via the WaitGroup.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.softCtx.Done():
			s.flushQueue()
			return
		case r := <-s.queue:
			s.execute(r)
		}
	}
}

// flushQueue cancels every still-queued run during a drain.
func (s *Server) flushQueue() {
	for {
		select {
		case r := <-s.queue:
			r.finishCanceledBeforeStart("server drained before the run started")
			s.runs.release(r)
		default:
			return
		}
	}
}

// execute runs one experiment to a terminal state. The deferred recover is
// the panic quarantine: a crashing experiment fails its own run — stack
// preserved in the run log — and the worker loop continues untouched.
func (s *Server) execute(r *run) {
	defer s.runs.release(r)
	ctx, cancel := context.WithCancelCause(s.hardCtx)
	defer cancel(nil)
	runCtx := ctx
	if r.timeout > 0 {
		var cancelTimeout context.CancelFunc
		runCtx, cancelTimeout = context.WithTimeoutCause(ctx, r.timeout,
			fmt.Errorf("run deadline %v exceeded", r.timeout))
		defer cancelTimeout()
	}
	defer func() {
		if v := recover(); v != nil {
			s.logf("run %s (%s) panicked; quarantined: %v", r.id, r.spec.Experiment, v)
			r.finishPanic(v, debug.Stack())
		}
	}()
	r.start(cancel)

	sc := r.scale
	sc.Context = runCtx
	sc.Drain = s.softCtx
	sc.Logf = r.logf
	sc.Cache = s.st
	sinks := nvmwear.RunSinks{
		Out:    r.outWriter(),
		Format: r.spec.Format,
		Progress: func(name string, done, total int) {
			r.setProgress(done, total)
		},
		SeriesDone: func(fig string, series nvmwear.Series) {
			r.hub.publish(Event{Type: "series", Data: map[string]string{"fig": fig, "label": series.Label}})
		},
		Rendered: r.setRendered,
	}
	r.finish(nvmwear.RunAt(r.spec.Experiment, sc, sinks))
}
