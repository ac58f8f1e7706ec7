package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"nvmwear"
)

// TestMain lets this test binary stand in for the wlsim executable: when
// re-executed with WLSIM_RUN_MAIN=1 it runs main() instead of the tests,
// so the signal-handling integration test below needs no separate build.
func TestMain(m *testing.M) {
	if os.Getenv("WLSIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSIGINTFlushesPartialTable interrupts a multi-job sweep mid-run and
// checks the contract the usage text states: the completed points are
// flushed as a partial table on stdout and the process exits 130.
func TestSIGINTFlushesPartialTable(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("POSIX signal test")
	}
	// WLSIM_JOB_DELAY_MS stretches the 56-job fig3 sweep so the signal
	// reliably lands mid-run; -j1 keeps the completed prefix contiguous.
	cmd := osexec.Command(os.Args[0], "-scale", "small", "-j", "1", "-q", "fig3")
	cmd.Env = append(os.Environ(), "WLSIM_RUN_MAIN=1", "WLSIM_JOB_DELAY_MS=300")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Give the sweep time to complete a couple of jobs, then interrupt.
	time.Sleep(1500 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	var err error
	select {
	case err = <-waitErr:
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("wlsim did not exit after SIGINT; stderr:\n%s", stderr.String())
	}
	ee, ok := err.(*osexec.ExitError)
	if !ok {
		t.Fatalf("expected nonzero exit after SIGINT, got err=%v; stdout:\n%s", err, stdout.String())
	}
	if code := ee.ExitCode(); code != 130 {
		t.Fatalf("exit code %d, want 130; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Fig 3") {
		t.Errorf("partial table missing from stdout:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "interrupted") {
		t.Errorf("no interruption notice on stderr:\n%s", stderr.String())
	}
}

// TestTimeoutFlushesPartialTable is -timeout's contract: the deadline
// cancels the sweep through the same path as SIGINT — completed points
// flush as a partial table and the process exits 130 — with no signal
// involved, so it holds on any platform and under any supervisor. attack
// must flush only the schemes it scored, never zero rows for the rest.
func TestTimeoutFlushesPartialTable(t *testing.T) {
	cases := []struct {
		exp, title string
		maxRows    int // most table rows a partial run may print; 0 = unchecked
	}{
		{exp: "fig3", title: "Fig 3"},
		{exp: "attack", title: "Attack resilience", maxRows: len(nvmwear.AttackKinds) - 1},
	}
	for _, c := range cases {
		t.Run(c.exp, func(t *testing.T) {
			// The per-job delay stretches the sweep well past the 1.5s
			// deadline; -j1 keeps the completed prefix contiguous.
			env := []string{"WLSIM_JOB_DELAY_MS=300"}
			stdout, stderr, err := wlsim(t, env, "-scale", "small", "-j", "1", "-q", "-timeout", "1500ms", c.exp)
			ee, ok := err.(*osexec.ExitError)
			if !ok {
				t.Fatalf("expected nonzero exit after -timeout, got err=%v; stdout:\n%s", err, stdout)
			}
			if code := ee.ExitCode(); code != 130 {
				t.Fatalf("exit code %d, want 130; stderr:\n%s", code, stderr)
			}
			if !strings.Contains(stdout, c.title) {
				t.Errorf("partial table missing from stdout:\n%s", stdout)
			}
			if !strings.Contains(stderr, "timed out") {
				t.Errorf("stderr does not report the timeout cause:\n%s", stderr)
			}
			if !strings.Contains(stderr, "partial results flushed") {
				t.Errorf("no partial-flush notice on stderr:\n%s", stderr)
			}
			if c.maxRows > 0 {
				rows := 0
				for _, line := range strings.Split(stdout, "\n") {
					for _, k := range nvmwear.AttackKinds {
						if strings.HasPrefix(line, string(k)+" ") {
							rows++
						}
					}
				}
				if rows > c.maxRows {
					t.Errorf("%d scheme rows flushed by an interrupted run, want at most %d:\n%s", rows, c.maxRows, stdout)
				}
			}
		})
	}
}

// tableLines strips the per-sweep summary ("[fault completed in ...]")
// from captured stdout, leaving only the experiment tables — the bytes the
// determinism and resume guarantees are stated over. Summary lines report
// wall-clock and cache statistics, which legitimately differ between runs.
func tableLines(stdout string) string {
	var keep []string
	for _, line := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(line, "[") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// wlsim re-executes the test binary as the wlsim CLI and returns its
// captured stdout/stderr and exit error.
func wlsim(t *testing.T, env []string, args ...string) (string, string, error) {
	t.Helper()
	cmd := osexec.Command(os.Args[0], args...)
	cmd.Env = append(append(os.Environ(), "WLSIM_RUN_MAIN=1"), env...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

// TestSIGKILLedSweepResumesByteIdentical is the crash-safety acceptance
// test: SIGKILL a cached sweep mid-run (no signal handler runs, the store
// lock is left behind), then re-run. The resumed process must reclaim the
// stale lock, serve the persisted jobs as cache hits, recompute only the
// rest, and print byte-identical tables to a cold cache-less run.
func TestSIGKILLedSweepResumesByteIdentical(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("POSIX signal test")
	}
	reference, _, err := wlsim(t, nil, "-scale", "small", "-j", "4", "-q", "fault")
	if err != nil {
		t.Fatalf("uncached reference run: %v", err)
	}

	dir := t.TempDir()
	// The per-job delay stretches the sweep past the kill point so some
	// jobs are persisted and some are not.
	cmd := osexec.Command(os.Args[0], "-scale", "small", "-j", "4", "-q", "-cache", dir, "fault")
	cmd.Env = append(os.Environ(), "WLSIM_RUN_MAIN=1", "WLSIM_JOB_DELAY_MS=300")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * time.Second)
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: nothing runs, nothing is flushed
		t.Fatal(err)
	}
	cmd.Wait()

	stdout, stderr, err := wlsim(t, nil, "-scale", "small", "-j", "4", "-q", "-cache", dir, "fault")
	if err != nil {
		t.Fatalf("resume run failed: %v\nstderr:\n%s", err, stderr)
	}
	if !strings.Contains(stderr, "reclaiming stale lock") {
		t.Errorf("no stale-lock reclaim notice on stderr:\n%s", stderr)
	}
	if got, want := tableLines(stdout), tableLines(reference); got != want {
		t.Errorf("resumed tables differ from uncached run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	var hits, misses, recomputed int
	if _, err := fmt.Sscanf(stdout[strings.Index(stdout, "cache: "):],
		"cache: %d hits, %d misses, %d recomputed", &hits, &misses, &recomputed); err != nil {
		t.Fatalf("no cache summary in stdout:\n%s", stdout)
	}
	if hits < 1 {
		t.Errorf("resume served %d cache hits, want >= 1 (kill landed after %d jobs persisted?)", hits, hits)
	}
	if want := len(nvmwear.FaultSchemes) * len(nvmwear.FaultRates); hits+misses != want {
		t.Errorf("cache summary covers %d jobs, want %d", hits+misses, want)
	}

	// -cache-clear with no experiment is the maintenance mode: empty the
	// store and exit 0. A rerun after it starts cold again.
	if _, stderr, err := wlsim(t, nil, "-cache", dir, "-cache-clear"); err != nil {
		t.Fatalf("-cache-clear maintenance run: %v\nstderr:\n%s", err, stderr)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "objects"))
	if err == nil {
		for _, e := range entries {
			sub, _ := os.ReadDir(filepath.Join(dir, "objects", e.Name()))
			if len(sub) != 0 {
				t.Fatal("-cache-clear left entries behind")
			}
		}
	}
}

// TestAllSkipsFullyCachedExperiments is the whole-experiment skip
// acceptance test: `wlsim all` against a warm cache must consult the store
// up front, skip every experiment whose entire job plan is cached (with a
// notice), and -force must re-run them all — printing tables byte-identical
// to the cold run and to the checked-in goldens.
func TestAllSkipsFullyCachedExperiments(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-scale", "tiny", "-j", "4", "-q", "-cache", dir}

	cold, _, err := wlsim(t, nil, append(args, "all")...)
	if err != nil {
		t.Fatalf("cold `all` run: %v", err)
	}
	golden, err := os.ReadFile("testdata/all_tiny.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := tableLines(cold); got != string(golden) {
		t.Errorf("cold `all` tables deviate from testdata/all_tiny.golden:\n--- got ---\n%s\n--- want ---\n%s",
			got, golden)
	}

	warm, warmStderr, err := wlsim(t, nil, append(args, "all")...)
	if err != nil {
		t.Fatalf("warm `all` run: %v\nstderr:\n%s", err, warmStderr)
	}
	// Every `all` experiment with a job plan must be skipped; the planless
	// ones (table1, overhead) have nothing to cache and always run.
	for _, e := range nvmwear.Experiments() {
		if !e.InAll || e.Plan == nil {
			continue
		}
		if !strings.Contains(warmStderr, "skipped "+e.Name+" (") {
			t.Errorf("no skip notice for %s on stderr:\n%s", e.Name, warmStderr)
		}
	}
	warmGolden, err := os.ReadFile("testdata/all_tiny_warm.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := tableLines(warm); got != string(warmGolden) {
		t.Errorf("warm `all` tables deviate from testdata/all_tiny_warm.golden:\n--- got ---\n%s\n--- want ---\n%s",
			got, warmGolden)
	}

	// -force re-runs every experiment against the warm cache: all hits,
	// byte-identical tables to the cold run.
	forced, forcedStderr, err := wlsim(t, nil, append(args, "-force", "all")...)
	if err != nil {
		t.Fatalf("forced `all` run: %v", err)
	}
	if strings.Contains(forcedStderr, "skipped ") {
		t.Errorf("-force still skipped experiments:\n%s", forcedStderr)
	}
	if got, want := tableLines(forced), tableLines(cold); got != want {
		t.Errorf("-force tables differ from the cold run:\n--- cold ---\n%s\n--- forced ---\n%s", want, got)
	}
}

// TestSIGKILLedFleetResumesByteIdentical is the fleet experiment's
// crash-safety acceptance test: SIGKILL a cached fleet sweep mid-population,
// re-run, and require the resumed process to reclaim the stale lock, serve
// the persisted devices as cache hits, and print tables byte-identical to an
// uncached run.
func TestSIGKILLedFleetResumesByteIdentical(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("POSIX signal test")
	}
	args := []string{"-scale", "tiny", "-j", "1", "-devices", "4", "-q"}
	reference, _, err := wlsim(t, nil, append(args, "fleet")...)
	if err != nil {
		t.Fatalf("uncached reference run: %v", err)
	}

	dir := t.TempDir()
	// -j1 plus the per-job delay stretches the whole-catalogue sweep (4
	// devices per scheme) past the kill point, so some devices are persisted
	// and some are not.
	cmd := osexec.Command(os.Args[0], append(append([]string{}, args...), "-cache", dir, "fleet")...)
	cmd.Env = append(os.Environ(), "WLSIM_RUN_MAIN=1", "WLSIM_JOB_DELAY_MS=300")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Second)
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: nothing runs, nothing is flushed
		t.Fatal(err)
	}
	cmd.Wait()

	stdout, stderr, err := wlsim(t, nil, append(args, "-cache", dir, "fleet")...)
	if err != nil {
		t.Fatalf("resume run failed: %v\nstderr:\n%s", err, stderr)
	}
	if !strings.Contains(stderr, "reclaiming stale lock") {
		t.Errorf("no stale-lock reclaim notice on stderr:\n%s", stderr)
	}
	if got, want := tableLines(stdout), tableLines(reference); got != want {
		t.Errorf("resumed fleet tables differ from uncached run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	var hits, misses, recomputed int
	if _, err := fmt.Sscanf(stdout[strings.Index(stdout, "cache: "):],
		"cache: %d hits, %d misses, %d recomputed", &hits, &misses, &recomputed); err != nil {
		t.Fatalf("no cache summary in stdout:\n%s", stdout)
	}
	if hits < 1 {
		t.Errorf("resume served %d cache hits, want >= 1 (kill landed before any device persisted?)", hits)
	}
	if want := 4 * len(nvmwear.Schemes()); hits+misses != want {
		t.Errorf("cache summary covers %d devices, want %d", hits+misses, want)
	}
}

// TestParseDevices covers the -devices grammar: empty (defaults), a bare
// uniform count, per-scheme overrides, the mixed form, and the rejections
// (unknown scheme, non-positive or non-numeric counts).
func TestParseDevices(t *testing.T) {
	cases := []struct {
		in        string
		base      int
		overrides map[nvmwear.SchemeKind]int
		wantErr   string
	}{
		{in: "", base: 0},
		{in: "32", base: 32},
		{in: "rbsg=64", overrides: map[nvmwear.SchemeKind]int{nvmwear.RBSG: 64}},
		{in: "32,rbsg=64,pcms=16", base: 32,
			overrides: map[nvmwear.SchemeKind]int{nvmwear.RBSG: 64, nvmwear.PCMS: 16}},
		{in: " 8 , sawl = 2 ", base: 8, overrides: map[nvmwear.SchemeKind]int{nvmwear.SAWL: 2}},
		{in: "bogus=4", wantErr: "unknown scheme"},
		{in: "rbsg=0", wantErr: "bad count"},
		{in: "rbsg=x", wantErr: "bad count"},
		{in: "-3", wantErr: "bad count"},
	}
	for _, c := range cases {
		base, overrides, err := parseDevices(c.in)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("parseDevices(%q) err = %v, want %q", c.in, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseDevices(%q): %v", c.in, err)
			continue
		}
		if base != c.base {
			t.Errorf("parseDevices(%q) base = %d, want %d", c.in, base, c.base)
		}
		if len(overrides) != len(c.overrides) {
			t.Errorf("parseDevices(%q) overrides = %v, want %v", c.in, overrides, c.overrides)
			continue
		}
		for k, v := range c.overrides {
			if overrides[k] != v {
				t.Errorf("parseDevices(%q) overrides[%s] = %d, want %d", c.in, k, overrides[k], v)
			}
		}
	}
}

// TestDevicesFlagValidatedViaCLI drives the -devices satellite end to end:
// an unknown scheme override is rejected before anything runs, and a fat
// override that blows the -max-run-jobs plan cap is rejected with the same
// message shape the serve admission check produces.
func TestDevicesFlagValidatedViaCLI(t *testing.T) {
	_, stderr, err := wlsim(t, nil, "-scale", "tiny", "-devices", "bogus=4", "fleet")
	if err == nil {
		t.Fatalf("unknown -devices scheme accepted; stderr:\n%s", stderr)
	}
	if !strings.Contains(stderr, `unknown scheme "bogus"`) {
		t.Errorf("no unknown-scheme diagnostic on stderr:\n%s", stderr)
	}

	_, stderr, err = wlsim(t, nil, "-scale", "tiny", "-devices", "rbsg=64",
		"-max-run-jobs", "10", "fleet")
	if err == nil {
		t.Fatalf("over-cap fleet plan accepted; stderr:\n%s", stderr)
	}
	if !strings.Contains(stderr, `experiment "fleet" plans`) ||
		!strings.Contains(stderr, "over the 10-job cap (-max-run-jobs)") {
		t.Errorf("plan-cap rejection lacks the shared message shape:\n%s", stderr)
	}

	// Under the cap, the plan passes validation: a 1-device fleet runs.
	stdout, stderr, err := wlsim(t, nil, "-scale", "tiny", "-j", "4", "-q",
		"-devices", "1", "-max-run-jobs", "64", "fleet")
	if err != nil {
		t.Fatalf("under-cap fleet run failed: %v\nstderr:\n%s", err, stderr)
	}
	if !strings.Contains(stdout, "1 devices/scheme") {
		t.Errorf("population summary lacks the planned count:\n%s", stdout)
	}
}

// An unknown -scheme is a usage error caught before any sweep job runs.
func TestSchemeFlagValidatedViaCLI(t *testing.T) {
	_, stderr, err := wlsim(t, nil, "-scale", "tiny", "-scheme", "bogus", "sweep")
	if ee, ok := err.(*osexec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("unknown -scheme: err = %v, want exit 2; stderr:\n%s", err, stderr)
	}
	if !strings.Contains(stderr, `unknown scheme "bogus"`) {
		t.Errorf("no unknown-scheme diagnostic on stderr:\n%s", stderr)
	}
}

// TestFleetPoisonQuarantinesViaCLI drives the quarantine path through the
// real binary: WLSIM_FLEET_POISON panics one device job mid-sweep, and the
// process must still exit 0 with the device reported in the quarantine
// table and population statistics for the rest.
func TestFleetPoisonQuarantinesViaCLI(t *testing.T) {
	stdout, stderr, err := wlsim(t, []string{"WLSIM_FLEET_POISON=3"},
		"-scale", "tiny", "-j", "4", "-devices", "4", "-q", "fleet")
	if err != nil {
		t.Fatalf("poisoned fleet run failed: %v\nstderr:\n%s", err, stderr)
	}
	if !strings.Contains(stdout, "Quarantined devices") ||
		!strings.Contains(stdout, "poisoned device") {
		t.Fatalf("quarantine report missing from stdout:\n%s", stdout)
	}
	if !strings.Contains(stdout, "4/4") {
		t.Fatalf("population summary does not account for all planned devices:\n%s", stdout)
	}
}

// TestServeRunsExperimentAndDrains is the `wlsim serve` end-to-end smoke:
// boot the service as a subprocess, run a real experiment over HTTP, pull
// its artifacts, then drain via /quitquitquit and require exit 0.
func TestServeRunsExperimentAndDrains(t *testing.T) {
	dir := t.TempDir()
	cmd := osexec.Command(os.Args[0], "-scale", "tiny", "-addr", "127.0.0.1:0", "-cache", dir, "serve")
	cmd.Env = append(os.Environ(), "WLSIM_RUN_MAIN=1")
	stderrPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The server logs its bound address (the ":0" port) on stderr.
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderrPipe)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				addrCh <- strings.Fields(rest)[0]
			}
		}
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-time.After(20 * time.Second):
		t.Fatal("server never logged its listen address")
	}

	get := func(path string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, `"ok"`) {
		t.Fatalf("healthz: %d %s", code, body)
	}

	resp, err := http.Post(base+"/runs", "application/json",
		strings.NewReader(`{"experiment": "fault"}`))
	if err != nil {
		t.Fatal(err)
	}
	var run struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&run); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 202 {
		t.Fatalf("POST /runs: %d (%+v)", resp.StatusCode, run)
	}
	deadline := time.Now().Add(60 * time.Second)
	for run.State != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("run %s stuck in %q", run.ID, run.State)
		}
		if run.State == "failed" || run.State == "canceled" {
			t.Fatalf("run %s ended %q: %s", run.ID, run.State, run.Error)
		}
		time.Sleep(100 * time.Millisecond)
		code, body := get("/runs/" + run.ID)
		if code != 200 {
			t.Fatalf("GET /runs/%s: %d", run.ID, code)
		}
		if err := json.Unmarshal([]byte(body), &run); err != nil {
			t.Fatal(err)
		}
	}
	if code, out := get("/runs/" + run.ID + "/artifacts/output.txt"); code != 200 ||
		!strings.Contains(out, "fault") {
		t.Fatalf("output.txt: %d\n%s", code, out)
	}

	if code, _ := get("/quitquitquit"); code != 200 {
		t.Fatalf("quitquitquit: %d", code)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("serve exited nonzero after drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not exit after /quitquitquit")
	}
}

// TestListDescribesRegistry pins the `list` subcommand against its golden:
// every registered experiment with its job count at the selected scale,
// plus the scheme shard analysis. The golden doubles as the catalogue-wide
// shardability assertion — every scheme row says "yes" with an empty
// "serial because" cell, so a scheme regressing to a scheme-level serial
// fallback shows up as a golden diff.
func TestListDescribesRegistry(t *testing.T) {
	stdout, stderr, err := wlsim(t, nil, "-scale", "tiny", "list")
	if err != nil {
		t.Fatalf("list: %v\nstderr:\n%s", err, stderr)
	}
	for _, e := range nvmwear.Experiments() {
		if !strings.Contains(stdout, e.Name) {
			t.Errorf("list output lacks experiment %q:\n%s", e.Name, stdout)
		}
	}
	// The catalogue carries the sharded column, and the shard analysis
	// explains per scheme whether -shards decomposes its lifetime runs.
	if !strings.Contains(stdout, "sharded") {
		t.Errorf("list output lacks the sharded column:\n%s", stdout)
	}
	if !strings.Contains(stdout, "partitionable") || !strings.Contains(stdout, "serial because") {
		t.Errorf("list output lacks the scheme shard analysis:\n%s", stdout)
	}
	want, err := os.ReadFile("testdata/list_tiny.golden")
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(want) {
		t.Errorf("list output deviates from testdata/list_tiny.golden:\n--- got ---\n%s--- want ---\n%s",
			stdout, want)
	}
}
