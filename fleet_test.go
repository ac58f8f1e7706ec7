package nvmwear

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"nvmwear/internal/lifetime"
	"nvmwear/internal/rng"
)

// renderFleetTables runs the fleet sweep and renders every output table —
// the byte stream the determinism contract is pinned on.
func renderFleetTables(t *testing.T, sc Scale) string {
	t.Helper()
	fr, err := RunFleet(sc)
	if err != nil {
		t.Fatal(err)
	}
	tables, _ := renderFleet(Result{fr})
	var b strings.Builder
	for _, tb := range tables {
		b.WriteString(tb.Render())
		b.WriteByte('\n')
	}
	return b.String()
}

// fleetTestScale is the tiny scale with a population small enough for unit
// tests: 6 devices per scheme across the full catalogue.
func fleetTestScale() Scale {
	sc := tinyScale()
	sc.FleetDevices = 6
	return sc
}

func TestFleetDeterministicAcrossWorkerCounts(t *testing.T) {
	sc := fleetTestScale()
	serial := renderFleetTables(t, withParallelism(sc, 1))
	parallel := renderFleetTables(t, withParallelism(sc, 8))
	if serial != parallel {
		t.Fatalf("fleet tables differ between -j1 and -j8:\n--- j1 ---\n%s--- j8 ---\n%s",
			serial, parallel)
	}
	if !strings.Contains(serial, "Fleet population") {
		t.Fatalf("no population summary rendered:\n%s", serial)
	}
	if strings.Contains(serial, "Quarantined") {
		t.Fatalf("healthy fleet rendered a quarantine report:\n%s", serial)
	}
}

// TestFleetQuarantinesPoisonedDevice poisons one device job (the CLI's
// WLSIM_FLEET_POISON hook) and checks the isolation contract end to end:
// the sweep completes without error, the poisoned device is reported with
// its panic cause, and the remaining population's percentiles still render.
func TestFleetQuarantinesPoisonedDevice(t *testing.T) {
	sc := withParallelism(fleetTestScale(), 8)
	sc.FleetPoison = 5 // job index 4: scheme 0, device 4
	fr, err := RunFleet(sc)
	if err != nil {
		t.Fatalf("poisoned fleet sweep failed: %v", err)
	}
	row := fr.Rows[4]
	if row.Cause != string(lifetime.CauseQuarantined) {
		t.Fatalf("poisoned row cause = %q, want quarantined", row.Cause)
	}
	if !strings.Contains(row.Error, "poisoned device") || !strings.Contains(row.Error, "panic") {
		t.Fatalf("poisoned row error = %q", row.Error)
	}
	if row.Desc.Device != 4 || row.Desc.Scheme != string(FleetSchemes[0]) {
		t.Fatalf("quarantined row identifies %s, want %s/dev004", row.Desc, FleetSchemes[0])
	}
	healthy := 0
	for i, r := range fr.Rows {
		if i != 4 && r.Cause != "" && r.Cause != string(lifetime.CauseQuarantined) {
			healthy++
		}
	}
	if want := len(fr.Rows) - 1; healthy != want {
		t.Fatalf("%d healthy rows, want %d — quarantine leaked beyond the poisoned job", healthy, want)
	}

	tables, _ := renderFleet(Result{fr})
	var all strings.Builder
	for _, tb := range tables {
		all.WriteString(tb.Render())
	}
	out := all.String()
	if !strings.Contains(out, "Quarantined devices") || !strings.Contains(out, "poisoned device") {
		t.Fatalf("quarantine report missing:\n%s", out)
	}
	// The poisoned scheme's summary row still carries population statistics
	// from the surviving devices: 6/6 accounted for, 1 quarantined.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), string(FleetSchemes[0])+" ") {
			if !strings.Contains(line, "6/6") {
				t.Fatalf("poisoned scheme row does not account for all devices: %q", line)
			}
			return
		}
	}
	t.Fatalf("no summary row for %s:\n%s", FleetSchemes[0], out)
}

// TestFleetShardsWholeCatalogue runs the fleet under -shards: with every
// scheme in the catalogue shardable and the fleet geometry divisible,
// every device of every scheme must decompose — zero scheme-level serial
// fallbacks logged — and every row must complete cleanly.
func TestFleetShardsWholeCatalogue(t *testing.T) {
	sc := withParallelism(fleetTestScale(), 4)
	sc.Shards = 4
	var logs strings.Builder
	sc.Logf = func(f string, a ...any) { fmt.Fprintf(&logs, f+"\n", a...) }
	fr, err := RunFleet(sc)
	if err != nil {
		t.Fatalf("sharded fleet sweep failed: %v", err)
	}
	for i, r := range fr.Rows {
		if r.Cause == "" || r.Cause == string(lifetime.CauseQuarantined) {
			t.Fatalf("row %d (%s) did not complete cleanly: cause %q err %q",
				i, r.Desc, r.Cause, r.Error)
		}
	}
	if strings.Contains(logs.String(), "runs serial") {
		t.Fatalf("fully shardable catalogue still fell back to serial:\n%s", logs.String())
	}
}

// TestFleetDeviceOverrides checks the ragged-population plumbing: per-scheme
// -devices overrides resize only their scheme's block, the job layout stays
// scheme-major over the prefix sums, the cache identity distinguishes ragged
// from uniform fleets, and the renderer reports per-scheme planned counts.
func TestFleetDeviceOverrides(t *testing.T) {
	sc := fleetTestScale()
	sc.FleetDeviceOverrides = map[SchemeKind]int{RBSG: 9, PCMS: 2}

	counts := sc.fleetPopulation(FleetSchemes)
	offs, total := fleetOffsets(counts)
	wantTotal := 0
	for i, s := range FleetSchemes {
		want := 6
		if s == RBSG {
			want = 9
		}
		if s == PCMS {
			want = 2
		}
		if counts[i] != want {
			t.Errorf("%s plans %d devices, want %d", s, counts[i], want)
		}
		wantTotal += want
	}
	if total != wantTotal {
		t.Fatalf("total = %d, want %d", total, wantTotal)
	}

	uniform := fleetTestScale()
	if fleetFig(FleetSchemes, sc.fleetPopulation(FleetSchemes)) ==
		fleetFig(FleetSchemes, uniform.fleetPopulation(FleetSchemes)) {
		t.Fatalf("ragged and uniform fleets share a cache identity")
	}

	fr, err := RunFleet(withParallelism(sc, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Rows) != total {
		t.Fatalf("%d rows, want %d", len(fr.Rows), total)
	}
	// Every block holds its own scheme's devices, numbered from zero.
	for si, s := range FleetSchemes {
		for d := 0; d < counts[si]; d++ {
			row := fr.Rows[offs[si]+d]
			if row.Desc.Scheme != string(s) || row.Desc.Device != d {
				t.Fatalf("row %d is %s/dev%03d, want %s/dev%03d",
					offs[si]+d, row.Desc.Scheme, row.Desc.Device, s, d)
			}
		}
	}
	tables, _ := renderFleet(Result{fr})
	out := tables[0].Render()
	if !strings.Contains(out, "rbsg=9") || !strings.Contains(out, "pcms=2") {
		t.Fatalf("summary title does not spell the ragged plan:\n%s", out)
	}
	if !strings.Contains(out, "9/9") || !strings.Contains(out, "2/2") {
		t.Fatalf("summary lacks per-scheme ran/planned columns:\n%s", out)
	}
}

// TestFleetCostPrefersExpensiveDevices pins the dispatch hint: the drawn
// fault rate dominates, so any fault-injected device must rank above every
// fault-free one, and the hint must never perturb results (covered by the
// determinism test, which runs the same fleet at -j1 and -j8).
func TestFleetCostPrefersExpensiveDevices(t *testing.T) {
	sc := fleetTestScale()
	counts := sc.fleetPopulation(FleetSchemes)
	offs, n := fleetOffsets(counts)
	schemeOf := make([]int, n)
	deviceOf := make([]int, n)
	for si, c := range counts {
		for d := 0; d < c; d++ {
			schemeOf[offs[si]+d] = si
			deviceOf[offs[si]+d] = d
		}
	}
	cost := fleetCost(sc, FleetSchemes, schemeOf, deviceOf)
	minFaulty, maxClean := math.Inf(1), math.Inf(-1)
	faulty := 0
	for i := 0; i < n; i++ {
		desc, _, _ := fleetDraw(sc, FleetSchemes[schemeOf[i]], deviceOf[i],
			rng.SeedStream(sc.Seed, uint64(i)))
		c := cost(i)
		if desc.FaultRate > 0 {
			faulty++
			minFaulty = math.Min(minFaulty, c)
		} else {
			maxClean = math.Max(maxClean, c)
		}
	}
	if faulty == 0 || faulty == n {
		t.Fatalf("draws produced %d/%d faulty devices; the split test needs both kinds", faulty, n)
	}
	if minFaulty <= maxClean {
		t.Fatalf("cheapest faulty device (%g) does not outrank costliest clean one (%g)",
			minFaulty, maxClean)
	}
}

// TestFleetInterruptedReturnsPartialPopulation cancels a serial fleet sweep
// mid-run and checks the partial-result contract: the error wraps
// ErrInterrupted, completed rows are valid, unstarted rows are holes, and
// the renderer reports a partial population (ran < planned) without
// inventing data for the missing devices.
func TestFleetInterruptedReturnsPartialPopulation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sc := withParallelism(fleetTestScale(), 1)
	sc.Context = ctx
	fired := false
	sc.Progress = func(done, total int) {
		if !fired && done >= 2 {
			fired = true
			cancel()
		}
	}
	fr, err := RunFleet(sc)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	n := len(FleetSchemes) * sc.FleetDevices
	if len(fr.Rows) != n {
		t.Fatalf("partial result has %d rows, want full-length %d with holes", len(fr.Rows), n)
	}
	completed := 0
	for _, r := range fr.Rows {
		if r.Cause != "" {
			completed++
		}
	}
	if completed < 2 || completed >= n {
		t.Fatalf("%d completed rows in an interrupted %d-device sweep", completed, n)
	}
	// Completed rows must match the same devices of an uninterrupted run.
	full, ferr := RunFleet(withParallelism(fleetTestScale(), 1))
	if ferr != nil {
		t.Fatal(ferr)
	}
	for i, r := range fr.Rows {
		if r.Cause != "" && r != full.Rows[i] {
			t.Fatalf("row %d: partial %+v != full %+v", i, r, full.Rows[i])
		}
	}
	tables, _ := renderFleet(Result{fr})
	out := tables[0].Render()
	if !strings.Contains(out, "/6") {
		t.Fatalf("summary lacks the ran/planned column:\n%s", out)
	}
}
