package serve

// The server robustness matrix (run under -race): warm drain/resume,
// queue-overflow backpressure, panic containment, per-run deadlines,
// client cancellation, stalled SSE subscribers, and degraded-cache
// arbitration between two servers sharing one store directory.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"nvmwear/internal/store"
)

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	if cfg.Scale == "" {
		cfg.Scale = "tiny"
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	cfg.Logf = t.Logf
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Drain("test cleanup")
		waitDrained(t, s)
	})
	return s
}

func waitDrained(t *testing.T, s *Server) {
	t.Helper()
	done := make(chan struct{})
	go func() { s.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("server did not finish draining")
	}
}

// httpJSON performs a request and decodes the JSON response.
func httpJSON(t *testing.T, method, url string, body any) (int, http.Header, map[string]any) {
	t.Helper()
	var reqBody *strings.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		reqBody = strings.NewReader(string(b))
	} else {
		reqBody = strings.NewReader("")
	}
	req, err := http.NewRequest(method, url, reqBody)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	out := map[string]any{}
	json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, resp.Header, out
}

// submit POSTs a run spec and returns the response.
func submit(t *testing.T, s *Server, spec map[string]any) (int, http.Header, map[string]any) {
	t.Helper()
	return httpJSON(t, "POST", "http://"+s.Addr()+"/runs", spec)
}

// waitRunState polls a run until it reaches want (failing on any other
// terminal state) and returns its final view.
func waitRunState(t *testing.T, s *Server, id string, want State) map[string]any {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		code, _, v := httpJSON(t, "GET", "http://"+s.Addr()+"/runs/"+id, nil)
		if code != http.StatusOK {
			t.Fatalf("GET /runs/%s: status %d", id, code)
		}
		got := State(v["state"].(string))
		if got == want {
			return v
		}
		if got.terminal() {
			t.Fatalf("run %s reached %q (error %v), want %q", id, got, v["error"], want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s stuck in %q, want %q", id, got, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func artifact(t *testing.T, s *Server, id, name string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + s.Addr() + "/runs/" + id + "/artifacts/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp.StatusCode, b.String()
}

// TestDrainResumesWarm is the graceful-shutdown acceptance test: drain a
// server mid-sweep, let the in-flight jobs checkpoint to the store, then
// bring up a second server on the same cache directory and resubmit. The
// resumed run must complete with every job computed exactly once across
// both server lifetimes.
func TestDrainResumesWarm(t *testing.T) {
	dir := t.TempDir()
	const seed = 1001
	c := newCtrl(seed, 6)
	cfg := Config{CacheDir: dir, Parallelism: 2, Workers: 1}

	s1 := startServer(t, cfg)
	code, _, v := submit(t, s1, map[string]any{"experiment": "serve-test-gated", "seed": seed})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%v)", code, v)
	}
	// Both pool workers are now mid-job and blocked on the gate.
	<-c.started
	<-c.started
	s1.Drain("test: drain with in-flight jobs")
	close(c.release) // in-flight jobs finish and persist during the drain
	waitDrained(t, s1)
	if got := c.execs.Load(); got != 2 {
		t.Fatalf("first server computed %d jobs, want exactly the 2 in-flight ones", got)
	}

	s2 := startServer(t, cfg)
	code, _, v = submit(t, s2, map[string]any{"experiment": "serve-test-gated", "seed": seed})
	if code != http.StatusAccepted {
		t.Fatalf("resubmit: status %d (%v)", code, v)
	}
	id := v["id"].(string)
	final := waitRunState(t, s2, id, StateDone)
	if got := c.execs.Load(); got != 6 {
		t.Fatalf("total jobs computed across both servers = %d, want 6 (each job exactly once)", got)
	}
	if final["jobsDone"].(float64) != 6 {
		t.Fatalf("resumed run reports %v jobs done, want 6", final["jobsDone"])
	}
	if code, out := artifact(t, s2, id, "output.txt"); code != http.StatusOK || !strings.Contains(out, "serve test") {
		t.Fatalf("resumed run's output.txt (status %d):\n%s", code, out)
	}
}

// TestQueueOverflowAnswers503 is the backpressure contract: a full bounded
// queue rejects new runs with 503 + Retry-After instead of queueing
// unboundedly; identical active specs coalesce onto one run; a draining
// server rejects everything.
func TestQueueOverflowAnswers503(t *testing.T) {
	const seedA = 2001
	a := newCtrl(seedA, 6)
	s := startServer(t, Config{Workers: 1, QueueDepth: 1})

	code, _, _ := submit(t, s, map[string]any{"experiment": "serve-test-gated", "seed": seedA})
	if code != http.StatusAccepted {
		t.Fatalf("run A: status %d", code)
	}
	<-a.started // A is executing (and blocked); the single worker is busy

	code, _, vb := submit(t, s, map[string]any{"experiment": "serve-test-quick", "seed": 2002})
	if code != http.StatusAccepted {
		t.Fatalf("run B: status %d", code)
	}
	// Duplicate of queued B coalesces: same run, no new queue slot.
	code, _, dup := submit(t, s, map[string]any{"experiment": "serve-test-quick", "seed": 2002})
	if code != http.StatusOK || dup["id"] != vb["id"] {
		t.Fatalf("duplicate spec: status %d id %v, want 200 with id %v", code, dup["id"], vb["id"])
	}
	// Queue slot taken by B: the next distinct spec overflows.
	code, hdr, vc := submit(t, s, map[string]any{"experiment": "serve-test-quick", "seed": 2003})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: status %d (%v), want 503", code, vc)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("503 overflow response lacks Retry-After")
	}

	// Drain while A is still in flight: admission stops immediately.
	code, _, _ = httpJSON(t, "POST", "http://"+s.Addr()+"/quitquitquit", nil)
	if code != http.StatusOK {
		t.Fatalf("quitquitquit: status %d", code)
	}
	if code, _, _ := httpJSON(t, "GET", "http://"+s.Addr()+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: status %d, want 503", code)
	}
	code, _, _ = submit(t, s, map[string]any{"experiment": "serve-test-quick", "seed": 2004})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", code)
	}

	close(a.release)
	waitDrained(t, s)
	// B never ran (or was cut short by the drain): canceled, not lost. The
	// listener is down by now, so read the record directly.
	b, ok := s.runs.get(vb["id"].(string))
	if !ok {
		t.Fatal("queued run B vanished from the run set")
	}
	if st := b.view().State; st != StateCanceled {
		t.Errorf("queued run B ended %q, want canceled", st)
	}
}

// TestPanicContainment: an experiment whose jobs panic fails its own run —
// panic value and stack preserved in the run log — while the server and
// subsequent runs keep working.
func TestPanicContainment(t *testing.T) {
	s := startServer(t, Config{Workers: 1})
	code, _, v := submit(t, s, map[string]any{"experiment": "serve-test-panic"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	id := v["id"].(string)
	final := waitRunState(t, s, id, StateFailed)
	if final["panicked"] != true {
		t.Fatalf("failed run not marked panicked: %v", final)
	}
	if msg, _ := final["error"].(string); !strings.Contains(msg, "panicked") {
		t.Fatalf("error %q does not mention the panic", msg)
	}
	if code, logTxt := artifact(t, s, id, "log.txt"); code != http.StatusOK ||
		!strings.Contains(logTxt, "panic:") || !strings.Contains(logTxt, "boom from job") {
		t.Fatalf("log.txt lacks the panic record (status %d):\n%s", code, logTxt)
	}

	// The server survived: a normal run on the same worker completes.
	code, _, v = submit(t, s, map[string]any{"experiment": "serve-test-quick", "seed": 3001})
	if code != http.StatusAccepted {
		t.Fatalf("post-panic submit: status %d", code)
	}
	waitRunState(t, s, v["id"].(string), StateDone)
	code, _, hv := httpJSON(t, "GET", "http://"+s.Addr()+"/healthz", nil)
	if code != http.StatusOK || hv["status"] != "ok" {
		t.Fatalf("healthz after panic: %d %v", code, hv)
	}
}

// TestRunDeadlineCancels: a server-wide RunTimeout bounds every run; the
// sweep stops at the deadline with the completed prefix recorded and the
// run reported canceled, not failed.
func TestRunDeadlineCancels(t *testing.T) {
	s := startServer(t, Config{Workers: 1, Parallelism: 1, RunTimeout: 80 * time.Millisecond})
	code, _, v := submit(t, s, map[string]any{"experiment": "serve-test-sleepy"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	final := waitRunState(t, s, v["id"].(string), StateCanceled)
	done := final["jobsDone"].(float64)
	if done < 1 || done >= 40 {
		t.Fatalf("deadline-canceled run completed %v/40 jobs, want a proper prefix", done)
	}
	if msg, _ := final["error"].(string); !strings.Contains(msg, "interrupted") {
		t.Fatalf("error %q does not report interruption", msg)
	}
}

// TestDeleteCancelsRun: DELETE cancels a running sweep through its context;
// the run ends canceled with the client-request cause, and a second DELETE
// on the terminal run is a 409.
func TestDeleteCancelsRun(t *testing.T) {
	const seed = 5001
	c := newCtrl(seed, 6)
	s := startServer(t, Config{Workers: 1, Parallelism: 1})
	code, _, v := submit(t, s, map[string]any{"experiment": "serve-test-gated", "seed": seed})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	id := v["id"].(string)
	<-c.started

	code, _, _ = httpJSON(t, "DELETE", "http://"+s.Addr()+"/runs/"+id, nil)
	if code != http.StatusAccepted {
		t.Fatalf("DELETE: status %d, want 202", code)
	}
	close(c.release) // let the blocked job return so the cancel is observed
	final := waitRunState(t, s, id, StateCanceled)
	if msg, _ := final["error"].(string); !strings.Contains(msg, "client request") {
		t.Fatalf("error %q does not carry the client-cancel cause", msg)
	}
	code, _, _ = httpJSON(t, "DELETE", "http://"+s.Addr()+"/runs/"+id, nil)
	if code != http.StatusConflict {
		t.Fatalf("DELETE of terminal run: status %d, want 409", code)
	}
}

// TestStalledSSESubscriber: a subscriber that never reads its stream must
// not stall the run or the server — the hub's bounded buffers drop events
// for it — while a well-behaved subscriber attached to the same run
// receives the stream through to the terminal state.
func TestStalledSSESubscriber(t *testing.T) {
	const seed = 6001
	c := newCtrl(seed, 400)
	s := startServer(t, Config{Workers: 1, Parallelism: 1})
	code, _, v := submit(t, s, map[string]any{"experiment": "serve-test-quick", "seed": seed})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	id := v["id"].(string)
	<-c.started // job 0 is blocked; 399 jobs' worth of events are still to come

	// The stalled client: opens the stream and never reads a byte.
	stalled, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	fmt.Fprintf(stalled, "GET /runs/%s/events HTTP/1.1\r\nHost: wlsim\r\n\r\n", id)

	// The good client: reads the stream until it ends.
	good, err := http.Get("http://" + s.Addr() + "/runs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer good.Body.Close()
	sawTerminal := make(chan bool, 1)
	go func() {
		sc := bufio.NewScanner(good.Body)
		saw := false
		for sc.Scan() {
			if strings.Contains(sc.Text(), `"state":"done"`) {
				saw = true
			}
		}
		sawTerminal <- saw
	}()

	close(c.release)
	waitRunState(t, s, id, StateDone) // the run finished despite the stalled subscriber
	select {
	case saw := <-sawTerminal:
		if !saw {
			t.Error("well-behaved subscriber never saw the terminal state event")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("well-behaved subscriber's stream never ended")
	}
}

// TestSecondServerDegradesWithoutCache is the single-writer arbitration
// test: with the store's lockfile held elsewhere, the server comes up in
// degraded cache-less mode — visible in /healthz — and still runs
// experiments.
func TestSecondServerDegradesWithoutCache(t *testing.T) {
	dir := t.TempDir()
	holder, err := store.Open(dir) // stands in for a first server holding the lock
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()

	s := startServer(t, Config{CacheDir: dir, Workers: 1})
	if s.st != nil || s.degradedCache == "" {
		t.Fatalf("server with a held lockfile did not degrade: st=%v degraded=%q", s.st, s.degradedCache)
	}
	code, _, hv := httpJSON(t, "GET", "http://"+s.Addr()+"/healthz", nil)
	if code != http.StatusOK || !strings.HasPrefix(hv["cache"].(string), "degraded") {
		t.Fatalf("healthz does not surface the degraded cache: %d %v", code, hv)
	}
	code, _, v := submit(t, s, map[string]any{"experiment": "serve-test-quick", "seed": 7001})
	if code != http.StatusAccepted {
		t.Fatalf("submit on degraded server: status %d", code)
	}
	waitRunState(t, s, v["id"].(string), StateDone)
}

// TestAdmissionValidation: every malformed spec is rejected at POST time
// with the right status — nothing bad ever occupies a queue slot.
func TestAdmissionValidation(t *testing.T) {
	s := startServer(t, Config{MaxRunJobs: 1})
	cases := []struct {
		spec map[string]any
		want int
	}{
		{map[string]any{"experiment": "no-such-experiment"}, http.StatusNotFound},
		{map[string]any{"experiment": "serve-test-quick", "scale": "galactic"}, http.StatusBadRequest},
		{map[string]any{"experiment": "serve-test-quick", "timeout": "soon"}, http.StatusBadRequest},
		{map[string]any{"experiment": "serve-test-quick", "format": "yaml"}, http.StatusBadRequest},
		{map[string]any{"experiment": "serve-test-quick", "shards": 9999}, http.StatusBadRequest},
		{map[string]any{"experiment": "serve-test-quick", "scheme": "bogus"}, http.StatusBadRequest},
		{map[string]any{"experiment": "serve-test-quick", "bogus": true}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if code, _, v := submit(t, s, tc.spec); code != tc.want {
			t.Errorf("spec %v: status %d (%v), want %d", tc.spec, code, v, tc.want)
		}
	}
	// MaxRunJobs admission cap: find a real registered experiment planning
	// more than one job at the default scale and watch it bounce.
	resp, err := http.Get("http://" + s.Addr() + "/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var exps []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&exps); err != nil {
		t.Fatal(err)
	}
	for _, e := range exps {
		if e["jobs"].(float64) > 1 {
			code, _, v := submit(t, s, map[string]any{"experiment": e["name"]})
			if code != http.StatusUnprocessableEntity {
				t.Errorf("%v-job experiment %v admitted with status %d (%v), want 422", e["jobs"], e["name"], code, v)
			}
			return
		}
	}
	t.Fatal("no registered experiment plans more than one job at tiny scale")
}
