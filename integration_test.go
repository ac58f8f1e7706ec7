package nvmwear

// Cross-module integration tests: whole-system scenarios that exercise
// workload generators, wear-leveling schemes, the tiered translation stack
// and the device model together.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"testing"

	"nvmwear/internal/nvm"
	"nvmwear/internal/trace"
	"nvmwear/internal/wl/wltest"
)

// TestEndToEndDataIntegrity drives a SPEC-like workload through every
// scheme on a data-tracking device and verifies that no logical line's
// data is ever lost or misplaced by the remapping machinery.
func TestEndToEndDataIntegrity(t *testing.T) {
	for _, kind := range Schemes() {
		t.Run(string(kind), func(t *testing.T) {
			sys, err := NewSystem(SystemConfig{
				Scheme: kind, Lines: 1 << 10, SpareLines: 1, Endurance: 1 << 30,
				Period: 4, RegionLines: 8, Regions: 16, CMTEntries: 64,
				TrackData: true, Seed: 9,
				ObservationWindow: 1 << 10, SettlingWindow: 1 << 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			wltest.Fill(sys.dev, sys.lv)
			stream, _, err := WorkloadSpec{Kind: WorkloadSPEC, Name: "gcc", Seed: 9}.Build(1 << 10)
			if err != nil {
				t.Fatal(err)
			}
			reqs := trace.NewCursor(stream, 40000)
			for r, ok := reqs.Next(); ok; r, ok = reqs.Next() {
				sys.lv.Access(r.Op, r.Addr)
			}
			wltest.CheckBijection(t, sys.dev, sys.lv)
			wltest.CheckIntegrity(t, sys.dev, sys.lv)
		})
	}
}

// TestDeterministicRuns verifies that identical configurations produce
// bit-identical results — the reproducibility contract every experiment
// depends on.
func TestDeterministicRuns(t *testing.T) {
	run := func() Stats {
		sys, err := NewSystem(SystemConfig{
			Scheme: SAWL, Lines: 1 << 12, SpareLines: 64, Endurance: 5000,
			Period: 8, CMTEntries: 256, Seed: 33,
			ObservationWindow: 1 << 12, SettlingWindow: 1 << 12,
		})
		if err != nil {
			t.Fatal(err)
		}
		stream, _, _ := WorkloadSpec{Kind: WorkloadSPEC, Name: "soplex", Seed: 33}.Build(1 << 12)
		reqs := trace.NewCursor(stream, 200000)
		for r, ok := reqs.Next(); ok; r, ok = reqs.Next() {
			sys.lv.Access(r.Op, r.Addr)
		}
		return sys.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic runs:\n%+v\n%+v", a, b)
	}
}

// TestTraceReplayEquivalence verifies that recording a workload to the
// binary trace format and replaying it produces the same wear as driving
// the generator directly.
func TestTraceReplayEquivalence(t *testing.T) {
	const n = 50000
	mkSys := func() *System {
		sys, err := NewSystem(SystemConfig{
			Scheme: PCMS, Lines: 1 << 10, SpareLines: 1, Endurance: 1 << 30,
			RegionLines: 4, Period: 8, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	// Record.
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	gen, _, _ := WorkloadSpec{Kind: WorkloadSPEC, Name: "milc", Seed: 5}.Build(1 << 10)
	direct := mkSys()
	reqs := trace.NewCursor(gen, n)
	for r, ok := reqs.Next(); ok; r, ok = reqs.Next() {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
		direct.lv.Access(r.Op, r.Addr)
	}
	w.Flush()

	// Replay.
	replayed := mkSys()
	rd := trace.NewReader(&buf)
	for {
		r, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		replayed.lv.Access(r.Op, r.Addr)
	}

	da, db := direct.WearCounts(), replayed.WearCounts()
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("wear diverged at line %d: %d vs %d", i, da[i], db[i])
		}
	}
}

// TestDeviceDeathIsGraceful verifies that schemes keep operating (no
// panics, stable translation) after the device dies mid-run.
func TestDeviceDeathIsGraceful(t *testing.T) {
	for _, kind := range []SchemeKind{Baseline, TLSR, PCMS, SAWL} {
		sys, err := NewSystem(SystemConfig{
			Scheme: kind, Lines: 1 << 10, SpareLines: 2, Endurance: 50,
			Period: 8, RegionLines: 4, Regions: 16, CMTEntries: 64, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100000 && sys.Alive(); i++ {
			sys.Write(5)
		}
		if sys.Alive() {
			t.Fatalf("%s: device survived the hammering", kind)
		}
		// Post-mortem accesses must not panic and must stay in range.
		for i := uint64(0); i < 1000; i++ {
			if pma := sys.Write(i % (1 << 10)); pma >= sys.dev.Lines() {
				t.Fatalf("%s: post-mortem access out of range", kind)
			}
		}
		if !sys.Stats().Dead {
			t.Fatalf("%s: stats not marked dead", kind)
		}
	}
}

// TestWearAccountingIsExact verifies the cross-module accounting identity
// for every scheme, on a run-heavy (BPA) and a mixed (70 %-write uniform)
// workload through the batched path: on a device that stays alive, device
// total writes == demand writes + swap writes + merge writes + table
// writes, so a data movement that drops or double-counts a device write
// shows here.
func TestWearAccountingIsExact(t *testing.T) {
	for _, kind := range Schemes() {
		for _, w := range []WorkloadSpec{
			{Kind: WorkloadBPA, Seed: 11},
			{Kind: WorkloadUniform, WriteRatio: 0.7, Seed: 11},
		} {
			t.Run(fmt.Sprintf("%s/%s", kind, w.Kind), func(t *testing.T) {
				sys, err := NewSystem(SystemConfig{
					Scheme: kind, Lines: 1 << 10, SpareLines: 1, Endurance: 1 << 30,
					Period: 4, RegionLines: 8, Regions: 16, CMTEntries: 64, Seed: 11,
					ObservationWindow: 1 << 10, SettlingWindow: 1 << 10,
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sys.RunLifetime(w, 100_000); err != nil {
					t.Fatal(err)
				}
				st, dev := sys.lv.Stats(), sys.dev.Stats()
				if dev.Dead || st.DataWrites != 100_000 {
					t.Fatalf("run did not serve its budget on a live device: %+v, %+v", st, dev)
				}
				want := st.DataWrites + st.SwapWrites + st.MergeWrites + st.TableWrites
				if dev.TotalWrites != want {
					t.Fatalf("device writes %d != accounted %d (%+v)", dev.TotalWrites, want, st)
				}
			})
		}
	}
}

// TestVariationDevicesStillWork runs a lifetime experiment on a device
// with per-cell endurance variation (MLC process variation).
func TestVariationDevicesStillWork(t *testing.T) {
	sys, err := NewSystem(SystemConfig{
		Scheme: PCMS, Lines: 1 << 10, SpareLines: 64, Endurance: 500,
		Variation: 0.2, RegionLines: 4, Period: 4, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunLifetime(WorkloadSpec{Kind: WorkloadBPA, Seed: 17, Repeats: 16}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut || res.Normalized <= 0 {
		t.Fatalf("variation run: %+v", res)
	}
}

// TestSAWLConsistencyAfterLongMixedRun is the heaviest structural stress:
// a long phase-changing workload with aggressive adaptation windows, with
// the engine's full invariant check at the end.
func TestSAWLConsistencyAfterLongMixedRun(t *testing.T) {
	sys, err := NewSystem(SystemConfig{
		Scheme: SAWL, Lines: 1 << 12, SpareLines: 1, Endurance: 1 << 30,
		Period: 4, CMTEntries: 128, TrackData: true, Seed: 23,
		ObservationWindow: 1 << 11, SettlingWindow: 1 << 11, CheckEvery: 1 << 10,
		MaxGranLines: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	wltest.Fill(sys.dev, sys.lv)
	// Alternate scattered and hot phases to force merge and split storms.
	streamA, _, _ := WorkloadSpec{Kind: WorkloadUniform, WriteRatio: 0.7, Seed: 23}.Build(1 << 12)
	reqsA := trace.NewCursor(streamA, math.MaxUint64)
	for phase := 0; phase < 6; phase++ {
		if phase%2 == 0 {
			for i := 0; i < 60000; i++ {
				r, _ := reqsA.Next()
				sys.lv.Access(r.Op, r.Addr)
			}
		} else {
			for i := uint64(0); i < 60000; i++ {
				sys.Write(i % 128)
			}
		}
		if err := sys.coreScheme().CheckConsistency(); err != nil {
			t.Fatalf("phase %d: %v", phase, err)
		}
	}
	wltest.CheckBijection(t, sys.dev, sys.lv)
	wltest.CheckIntegrity(t, sys.dev, sys.lv)
	if sys.Merges() == 0 || sys.Splits() == 0 {
		t.Fatalf("adaptation did not exercise both directions: merges=%d splits=%d",
			sys.Merges(), sys.Splits())
	}
}

// TestSchemesShareDeviceContract: every scheme leaves the device usable
// for direct inspection (wear counts sized to device lines etc).
func TestSchemesShareDeviceContract(t *testing.T) {
	for _, kind := range Schemes() {
		sys, err := NewSystem(SystemConfig{
			Scheme: kind, Lines: 1 << 10, SpareLines: 1, Endurance: 1 << 30,
			Period: 16, RegionLines: 8, Regions: 16, CMTEntries: 64, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if uint64(len(sys.WearCounts())) != sys.dev.Lines() {
			t.Fatalf("%s: wear counts %d != device lines %d",
				kind, len(sys.WearCounts()), sys.dev.Lines())
		}
		if sys.dev.Lines() < sys.Lines() {
			t.Fatalf("%s: device smaller than logical space", kind)
		}
	}
}

// TestNVMDeviceAccessor sanity-checks the internal device wiring used by
// the integration tests themselves.
func TestNVMDeviceAccessor(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Scheme: Baseline, Lines: 1 << 10, SpareLines: 1, Endurance: 10})
	if err != nil {
		t.Fatal(err)
	}
	var dev *nvm.Device = sys.dev
	if dev.Lines() != 1<<10 {
		t.Fatal("device accessor")
	}
}
