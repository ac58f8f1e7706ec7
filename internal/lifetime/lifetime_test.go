package lifetime

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"nvmwear/internal/nvm"
	"nvmwear/internal/trace"
	"nvmwear/internal/wl"
	"nvmwear/internal/wl/pcms"
	"nvmwear/internal/workload"
)

// runOne is a whole-device run: Run over one shard.
func runOne(t *testing.T, dev *nvm.Device, lv wl.Leveler, stream trace.Stream, opts Options) Result {
	t.Helper()
	res, err := Run([]ShardRun{{Dev: dev, Lv: lv, Stream: stream}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBaselineUnderRAADiesFast(t *testing.T) {
	dev := nvm.New(nvm.Config{Lines: 1024, SpareLines: 16, Endurance: 100})
	lv := wl.NewIdentity(dev)
	res := runOne(t, dev, lv, workload.NewRAA(5), Options{Workload: "RAA"})
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
	res := runOne(t, dev, lv, seq, Options{Workload: "seq"})
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
		return runOne(t, dev, lv, bpa, Options{Workload: "BPA"}).Normalized
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
	base := runOne(t, devB, wl.NewIdentity(devB), workload.NewRAA(5), Options{Workload: "RAA"})
	devP := nvm.New(nvm.Config{Lines: 4096, SpareLines: 64, Endurance: 500})
	lv := pcms.New(devP, pcms.Config{Lines: 4096, RegionLines: 4, Period: 4, Seed: 1})
	hybrid := runOne(t, devP, lv, workload.NewRAA(5), Options{Workload: "RAA"})
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
			res := runOne(t, dev, wl.NewIdentity(dev), c.stream(), Options{MaxWrites: c.budget})
			if !res.TimedOut || res.Served != c.budget || res.Reads != reads ||
				res.DeviceStats.TotalWrites != c.budget {
				t.Fatalf("budget %d, %d reads before its last write: %+v", c.budget, reads, res)
			}
		})
	}
}

// TestServeStopsAtRequestBound checks a fixed-length Serve, on a stream
// filled in place and on a generator that reads itself ahead: it applies
// exactly maxReqs requests and leaves the stream at the next one.
func TestServeStopsAtRequestBound(t *testing.T) {
	const n = 2*refill + 5
	gcc, _ := workload.ProfileByName("gcc")
	for _, c := range []struct {
		name   string
		stream func() trace.Stream
	}{
		{"uniform", func() trace.Stream { return workload.NewUniform(4, 1024, 0.5) }},
		{"gcc", func() trace.Stream { return trace.ReadAhead(gcc.New(4, 1024)) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			ref := trace.NewCursor(c.stream(), n+1)
			for i := 0; i < n; i++ {
				ref.Next()
			}
			want, _ := ref.Next()

			stream := c.stream()
			dev := nvm.New(nvm.Config{Lines: 1024, SpareLines: 1, Endurance: 1 << 30})
			lv := wl.NewIdentity(dev)
			Serve(dev, lv, stream, math.MaxUint64, n)
			if st := lv.Stats(); st.DataWrites+st.DataReads != n {
				t.Fatalf("served %d requests, want %d", st.DataWrites+st.DataReads, n)
			}
			if got, _ := trace.NewCursor(stream, 1).Next(); got != want {
				t.Fatalf("stream left at %+v, want request %d %+v", got, n, want)
			}
		})
	}
}

// serveSettled runs Serve on stream and checks that the goroutine count
// falls back to its value before the call: a read-ahead producer returns
// once its ring is full, whoever stopped reading it.
func serveSettled(t *testing.T, dev *nvm.Device, lv wl.Leveler, stream trace.Stream, maxWrites, maxReqs uint64) {
	t.Helper()
	before := runtime.NumGoroutine()
	defer waitGoroutines(t, before)
	Serve(dev, lv, stream, maxWrites, maxReqs)
}

// TestReadAheadMatchesInPlace runs every SPEC profile, and a rate-mode
// interleave, through Serve read ahead (trace.ReadAhead) and filled in
// place, and requires the same wl.Stats, nvm.Stats and wear vector
// whichever way the run ends: a write budget cut mid-refill, device death,
// or a request bound, after which both streams must also stand at the same
// next request. Each way, the read-ahead producer must be gone once its
// ring is full.
func TestReadAheadMatchesInPlace(t *testing.T) {
	const lines = 1024
	type stream struct {
		name string
		new  func() trace.Stream
	}
	var streams []stream
	for _, p := range workload.SpecProfiles {
		streams = append(streams, stream{p.Name, func() trace.Stream { return p.New(11, lines) }})
	}
	gcc, _ := workload.ProfileByName("gcc")
	streams = append(streams, stream{"rate-gcc", func() trace.Stream { return workload.NewRateMode(gcc, 11, lines, 8) }})
	ends := []struct {
		name               string
		endurance          uint32
		maxWrites, maxReqs uint64
	}{
		{"budget", 1 << 30, 2*refill + 77, math.MaxUint64},
		{"death", 30, math.MaxUint64, math.MaxUint64},
		{"bound", 1 << 30, math.MaxUint64, 4*refill + 5},
	}
	for _, s := range streams {
		for _, end := range ends {
			t.Run(s.name+"/"+end.name, func(t *testing.T) {
				system := func() (*nvm.Device, wl.Leveler) {
					dev := nvm.New(nvm.Config{Lines: lines, SpareLines: 8, Endurance: end.endurance})
					return dev, pcms.New(dev, pcms.Config{Lines: lines, RegionLines: 4, Period: 8, Seed: 5})
				}
				aheadStream, inPlaceStream := trace.ReadAhead(s.new()), s.new()
				aDev, aLv := system()
				serveSettled(t, aDev, aLv, aheadStream, end.maxWrites, end.maxReqs)
				iDev, iLv := system()
				Serve(iDev, iLv, inPlaceStream, end.maxWrites, end.maxReqs)
				if end.name == "death" && aDev.Alive() {
					t.Fatal("the device outlived the run")
				}
				if a, i := aLv.Stats(), iLv.Stats(); a != i {
					t.Errorf("scheme stats diverge:\n ahead   : %+v\n in place: %+v", a, i)
				}
				if a, i := aDev.Stats(), iDev.Stats(); a != i {
					t.Errorf("device stats diverge:\n ahead   : %+v\n in place: %+v", a, i)
				}
				if !slices.Equal(aDev.WearCounts(), iDev.WearCounts()) {
					t.Error("wear vectors diverge")
				}
				if end.name == "bound" {
					a, _ := trace.NewCursor(aheadStream, 1).Next()
					i, _ := trace.NewCursor(inPlaceStream, 1).Next()
					if a != i {
						t.Errorf("streams left at %+v read ahead and %+v in place", a, i)
					}
				}
			})
		}
	}
}

// waitGoroutines waits for the goroutine count to fall back to n or below.
// A goroutine that has signalled its exit still counts until it returns, so
// the count may lag the signal briefly (and n may hold the finishing
// goroutine of an earlier test).
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > n; {
		if time.Now().After(deadline) {
			t.Errorf("%d goroutines, %d before Serve", runtime.NumGoroutine(), n)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// thirdPanics is a stream whose third refill panics.
type thirdPanics struct{ fills int }

func (g *thirdPanics) NextBatch(ops []trace.Op, addrs []uint64) int {
	if g.fills++; g.fills == 3 {
		panic("third refill")
	}
	for i := range ops {
		ops[i], addrs[i] = trace.Write, uint64(i)%1024
	}
	return len(ops)
}

// secondPanics is a scheme whose second AccessBatch call panics.
type secondPanics struct {
	wl.Leveler
	calls int
}

func (s *secondPanics) AccessBatch(ops []trace.Op, addrs []uint64) int {
	if s.calls++; s.calls == 2 {
		panic("second batch")
	}
	return s.Leveler.AccessBatch(ops, addrs)
}

// TestReadAheadPanics checks both panics a Serve over a read-ahead stream
// can meet. A panic in the stream's fill reaches Serve's caller once the
// scheme has applied the refills drawn before it, as it would filled in
// place; a panic in the scheme leaves Serve the same way. Either way the
// producer is gone once its ring is full.
func TestReadAheadPanics(t *testing.T) {
	for _, c := range []struct {
		name    string
		stream  trace.Stream
		scheme  func(wl.Leveler) wl.Leveler
		want    string
		applied uint64 // refills the scheme applied before the panic
	}{
		{"generator", &thirdPanics{}, func(lv wl.Leveler) wl.Leveler { return lv }, "third refill", 2},
		{"scheme", workload.SpecProfiles[0].New(1, 1024), func(lv wl.Leveler) wl.Leveler { return &secondPanics{Leveler: lv} }, "second batch", 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			dev := nvm.New(nvm.Config{Lines: 1024, SpareLines: 1, Endurance: 1 << 30})
			id := wl.NewIdentity(dev)
			got := func() (p any) {
				defer func() { p = recover() }()
				serveSettled(t, dev, c.scheme(id), trace.ReadAhead(c.stream), math.MaxUint64, math.MaxUint64)
				return nil
			}()
			if got != c.want {
				t.Fatalf("Serve's caller recovered %v, want %q", got, c.want)
			}
			if st := id.Stats(); st.DataWrites+st.DataReads != c.applied*refill {
				t.Fatalf("scheme applied %d requests before the panic, want %d",
					st.DataWrites+st.DataReads, c.applied*refill)
			}
		})
	}
}

func TestNormalizedNeverExceedsOne(t *testing.T) {
	dev := nvm.New(nvm.Config{Lines: 256, SpareLines: 4, Endurance: 50})
	lv := wl.NewIdentity(dev)
	res := runOne(t, dev, lv, workload.NewUniform(9, 256, 1.0), Options{})
	if res.Normalized > 1.0 {
		t.Fatalf("normalized %.3f > 1", res.Normalized)
	}
	if res.TimedOut {
		t.Fatal("uniform run should kill the device within 4x ideal requests")
	}
}
