package lifetime

import (
	"math"
	"strings"
	"testing"

	"nvmwear/internal/nvm"
	"nvmwear/internal/trace"
	"nvmwear/internal/wl"
	"nvmwear/internal/wl/pcms"
	"nvmwear/internal/workload"
)

func TestBaselineUnderRAADiesFast(t *testing.T) {
	dev := nvm.New(nvm.Config{Lines: 1024, SpareLines: 16, Endurance: 100})
	lv := wl.NewIdentity(dev)
	res := Run(dev, lv, workload.NewRAA(5), Options{Workload: "RAA"})
	if res.TimedOut {
		t.Fatal("RAA run timed out")
	}
	// Only 17 line-lifetimes absorb the attack out of 1040.
	if res.Normalized > 0.05 {
		t.Fatalf("baseline RAA lifetime %.3f", res.Normalized)
	}
	if res.WearGini < 0.9 {
		t.Fatalf("gini %.3f for single-line attack", res.WearGini)
	}
	if !strings.Contains(res.String(), "Baseline/RAA") {
		t.Fatalf("string: %s", res.String())
	}
}

func TestBaselineUniformApproachesIdeal(t *testing.T) {
	dev := nvm.New(nvm.Config{Lines: 1024, SpareLines: 32, Endurance: 100})
	lv := wl.NewIdentity(dev)
	seq := workload.NewSequential(1, 1024, 1.0)
	res := Run(dev, lv, seq, Options{Workload: "seq"})
	if res.Normalized < 0.95 {
		t.Fatalf("sequential lifetime %.3f, want ~1", res.Normalized)
	}
}

// The paper's central observation (Sec 2.2): a hybrid scheme's lifetime
// under attack depends on how many exchanges fit within a cell's endurance.
// With SLC-like endurance the scheme approaches ideal; cutting endurance by
// an order of magnitude (MLC) collapses the lifetime.
func TestHybridLifetimeTracksEnduranceBudget(t *testing.T) {
	run := func(endurance uint32) float64 {
		dev := nvm.New(nvm.Config{Lines: 4096, SpareLines: 64, Endurance: endurance})
		lv := pcms.New(dev, pcms.Config{Lines: 4096, RegionLines: 4, Period: 4, Seed: 1})
		bpa := workload.NewBPA(3, 4096, 64)
		return Run(dev, lv, bpa, Options{Workload: "BPA"}).Normalized
	}
	slc := run(4000)
	mlc := run(200)
	if slc < 0.5 {
		t.Fatalf("high-endurance BPA lifetime only %.3f", slc)
	}
	if mlc >= slc {
		t.Fatalf("low endurance (%.3f) not worse than high endurance (%.3f)", mlc, slc)
	}
}

func TestRAABaselineVsHybrid(t *testing.T) {
	devB := nvm.New(nvm.Config{Lines: 4096, SpareLines: 64, Endurance: 500})
	base := Run(devB, wl.NewIdentity(devB), workload.NewRAA(5), Options{Workload: "RAA"})
	devP := nvm.New(nvm.Config{Lines: 4096, SpareLines: 64, Endurance: 500})
	lv := pcms.New(devP, pcms.Config{Lines: 4096, RegionLines: 4, Period: 4, Seed: 1})
	hybrid := Run(devP, lv, workload.NewRAA(5), Options{Workload: "RAA"})
	if hybrid.Normalized < 20*base.Normalized {
		t.Fatalf("hybrid RAA lifetime %.4f vs baseline %.4f: dispersion failed",
			hybrid.Normalized, base.Normalized)
	}
}

// TestMaxRequestsBudget checks that a run stops right after the budget's
// last write: in the first refill (all writes), and several refills in
// on a mixed stream, where the reads before that write are served too and
// none after it.
func TestMaxRequestsBudget(t *testing.T) {
	cases := []struct {
		name   string
		stream func() trace.Stream
		budget uint64
	}{
		{"raa", func() trace.Stream { return workload.NewRAA(1) }, 500},
		{"uniform-mixed", func() trace.Stream { return workload.NewUniform(4, 1024, 0.5) }, 5*refill + 77},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// The reference: the reads the stream issues before its
			// budget-th write.
			var reads, writes uint64
			for ref := trace.NewCursor(c.stream(), math.MaxUint64); writes < c.budget; {
				if r, _ := ref.Next(); r.Op == trace.Write {
					writes++
				} else {
					reads++
				}
			}
			dev := nvm.New(nvm.Config{Lines: 1024, SpareLines: 1 << 30, Endurance: 1 << 30})
			res := Run(dev, wl.NewIdentity(dev), c.stream(), Options{MaxWrites: c.budget})
			if !res.TimedOut || res.Served != c.budget || res.Reads != reads ||
				res.DeviceStats.TotalWrites != c.budget {
				t.Fatalf("budget %d, %d reads before its last write: %+v", c.budget, reads, res)
			}
		})
	}
}

// TestServeStopsAtRequestBound checks a fixed-length Serve: it applies
// exactly maxReqs requests and leaves the stream at the next one.
func TestServeStopsAtRequestBound(t *testing.T) {
	const n = 2*refill + 5
	ref := trace.NewCursor(workload.NewUniform(4, 1024, 0.5), n+1)
	for i := 0; i < n; i++ {
		ref.Next()
	}
	want, _ := ref.Next()

	stream := workload.NewUniform(4, 1024, 0.5)
	dev := nvm.New(nvm.Config{Lines: 1024, SpareLines: 1, Endurance: 1 << 30})
	lv := wl.NewIdentity(dev)
	Serve(dev, lv, stream, math.MaxUint64, n)
	if st := lv.Stats(); st.DataWrites+st.DataReads != n {
		t.Fatalf("served %d requests, want %d", st.DataWrites+st.DataReads, n)
	}
	if got, _ := trace.NewCursor(stream, 1).Next(); got != want {
		t.Fatalf("stream left at %+v, want request %d %+v", got, n, want)
	}
}

func TestNormalizedNeverExceedsOne(t *testing.T) {
	dev := nvm.New(nvm.Config{Lines: 256, SpareLines: 4, Endurance: 50})
	lv := wl.NewIdentity(dev)
	res := Run(dev, lv, workload.NewUniform(9, 256, 1.0), Options{})
	if res.Normalized > 1.0 {
		t.Fatalf("normalized %.3f > 1", res.Normalized)
	}
	if res.TimedOut {
		t.Fatal("uniform run should kill the device within 4x ideal requests")
	}
}
