package serve

import (
	"encoding/json"
	"fmt"
	"net/http"

	"nvmwear"
)

func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /experiments", s.handleExperiments)
	mux.HandleFunc("POST /runs", s.handleSubmit)
	mux.HandleFunc("GET /runs", s.handleRuns)
	mux.HandleFunc("GET /runs/{id}", s.handleRun)
	mux.HandleFunc("DELETE /runs/{id}", s.handleCancel)
	mux.HandleFunc("GET /runs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /runs/{id}/artifacts", s.handleArtifacts)
	mux.HandleFunc("GET /runs/{id}/artifacts/{name}", s.handleArtifact)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /quitquitquit", s.handleQuit)
	mux.HandleFunc("POST /quitquitquit", s.handleQuit)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// handleExperiments lists the registry catalogue.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type expView struct {
		Name        string `json:"name"`
		Description string `json:"description"`
		Figure      string `json:"figure"`
		InAll       bool   `json:"inAll"`
		Jobs        int    `json:"jobs"` // planned sweep jobs at the server's default scale
	}
	sc, _ := nvmwear.ScaleByName(s.cfg.Scale)
	sc.Shards = s.cfg.Shards
	var out []expView
	for _, e := range nvmwear.Experiments() {
		out = append(out, expView{Name: e.Name, Description: e.Description, Figure: e.Figure,
			InAll: e.InAll, Jobs: len(e.Plan(sc))})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleSubmit is POST /runs: validate, apply backpressure, enqueue.
// 202 for a newly queued run, 200 for a coalesced duplicate, 503 (with
// Retry-After) when the queue is full or the server is draining.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	run, aerr := s.resolve(spec)
	if aerr == nil {
		run, coalesced, err := s.admit(run)
		if err == nil {
			status := http.StatusAccepted
			if coalesced {
				status = http.StatusOK
			}
			writeJSON(w, status, run.view())
			return
		}
		aerr = err
	}
	if aerr.retry {
		w.Header().Set("Retry-After", "5")
	}
	writeError(w, aerr.status, aerr.msg)
}

// handleRuns lists every run in submission order.
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	out := []runView{}
	for _, run := range s.runs.list() {
		out = append(out, run.view())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) lookupRun(w http.ResponseWriter, r *http.Request) (*run, bool) {
	id := r.PathValue("id")
	run, ok := s.runs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown run %q", id))
		return nil, false
	}
	return run, true
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if run, ok := s.lookupRun(w, r); ok {
		writeJSON(w, http.StatusOK, run.view())
	}
}

// handleCancel is DELETE /runs/{id}: cancel a queued or running run. The
// run's partial artifacts stay available — DELETE removes the work, not
// the record. 409 once the run is terminal.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookupRun(w, r)
	if !ok {
		return
	}
	if !run.requestCancel() {
		writeError(w, http.StatusConflict, fmt.Sprintf("run %s already %s", run.id, run.view().State))
		return
	}
	writeJSON(w, http.StatusAccepted, run.view())
}

// handleEvents is GET /runs/{id}/events: an SSE stream of the run's state
// transitions, per-job progress, and per-series completions. The stream
// starts with a state snapshot, so a late subscriber is immediately
// consistent; a terminal run streams the snapshot and ends. A subscriber
// that stops reading loses events (bounded buffer) and receives a "lagged"
// marker when it resumes — it never blocks the run.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookupRun(w, r)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	// Subscribe before the snapshot: events published between the snapshot
	// and the first receive are buffered, not lost. (The subscriber may
	// then see a state both in the snapshot and as an event; SSE consumers
	// must treat "state" as idempotent replacement.)
	sub := run.hub.subscribe()
	defer run.hub.unsubscribe(sub)
	if !writeEvent(w, flusher, Event{Type: "state", Data: run.view()}) {
		return
	}
	for {
		select {
		case e, ok := <-sub.ch:
			if !ok {
				// Terminal state reached: one final snapshot (with the
				// artifact list) and a clean end of stream.
				writeEvent(w, flusher, Event{Type: "state", Data: run.view()})
				return
			}
			if !writeEvent(w, flusher, e) {
				return
			}
		case <-r.Context().Done():
			return // client vanished; unsubscribe stops the buffering
		case <-s.stopping:
			return // server shutting down; end the stream so Shutdown can finish
		}
	}
}

// writeEvent emits one SSE frame; false means the client is gone.
func writeEvent(w http.ResponseWriter, f http.Flusher, e Event) bool {
	payload, err := json.Marshal(e.Data)
	if err != nil {
		payload = []byte(fmt.Sprintf("%q", err.Error()))
	}
	if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Type, payload); err != nil {
		return false
	}
	f.Flush()
	return true
}

// handleArtifacts lists a run's artifacts.
func (s *Server) handleArtifacts(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookupRun(w, r)
	if !ok {
		return
	}
	run.mu.Lock()
	names := run.artifactNamesLocked()
	run.mu.Unlock()
	writeJSON(w, http.StatusOK, names)
}

// handleArtifact serves one artifact: output.txt (rendered tables +
// summary), log.txt (per-run diagnostics, including any panic stack), or a
// rendered <fig>.svg. Available while the run is live too — output.txt of
// a running sweep is simply what has rendered so far (usually empty until
// the run finishes; log.txt accumulates continuously).
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookupRun(w, r)
	if !ok {
		return
	}
	name := r.PathValue("name")
	b, ctype, ok := run.artifact(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("run %s has no artifact %q", run.id, name))
		return
	}
	w.Header().Set("Content-Type", ctype)
	w.Write(b)
}

// handleHealthz reports liveness plus the server's degraded-mode flags:
// cache state (ok, disabled, or degraded with the reason) and run counts.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	queued := len(s.queue)
	s.mu.Unlock()
	status := "ok"
	if draining {
		status = "draining"
	}
	cache := "disabled"
	switch {
	case s.st != nil:
		cache = "ok"
	case s.degradedCache != "":
		cache = "degraded: " + s.degradedCache
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     status,
		"cache":      cache,
		"queueLen":   queued,
		"queueDepth": s.cfg.QueueDepth,
		"runs":       s.runs.counts(),
	})
}

// handleReadyz answers 200 while the server admits runs, 503 once it is
// draining — the load-balancer "stop sending me work" signal.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleQuit initiates graceful shutdown over HTTP.
func (s *Server) handleQuit(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "draining"})
	s.Drain("quitquitquit")
}
