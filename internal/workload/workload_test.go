package workload

import (
	"fmt"
	"testing"

	"nvmwear/internal/trace"
)

func TestRAA(t *testing.T) {
	a := NewRAA(42)
	for i := 0; i < 100; i++ {
		r := a.Next()
		if r.Op != trace.Write || r.Addr != 42 {
			t.Fatalf("RAA emitted %+v", r)
		}
	}
}

func TestBPARepeatsPrecisely(t *testing.T) {
	a := NewBPA(1, 1<<20, 8)
	prev := a.Next()
	run := 1
	runs := make(map[uint64]int)
	for i := 0; i < 8000-1; i++ {
		r := a.Next()
		if r.Op != trace.Write {
			t.Fatal("BPA emitted a read")
		}
		if r.Addr == prev.Addr {
			run++
		} else {
			runs[prev.Addr] += run
			run = 1
			prev = r
		}
	}
	for addr, n := range runs {
		if n%8 != 0 {
			t.Fatalf("address %d written %d times (not a multiple of 8)", addr, n)
		}
	}
	if len(runs) < 500 {
		t.Fatalf("BPA only visited %d addresses", len(runs))
	}
}

// TestNextBatchMatchesNext pins every generator's NextBatch to its Next,
// request for request, at odd batch sizes, so repeat runs straddle batch
// ends and a batch can end mid-run or hold many runs.
func TestNextBatchMatchesNext(t *testing.T) {
	gcc, _ := ProfileByName("gcc")
	cases := []struct {
		name string
		new  func() trace.BatchStream
	}{
		{"raa", func() trace.BatchStream { return NewRAA(7) }},
		{"bpa/repeats=1", func() trace.BatchStream { return NewBPA(3, 1<<14, 1) }},
		{"bpa/repeats=7", func() trace.BatchStream { return NewBPA(3, 1<<14, 7) }},
		{"bpa/repeats=512", func() trace.BatchStream { return NewBPA(3, 1<<14, 512) }},
		{"bpa/repeats=5000", func() trace.BatchStream { return NewBPA(3, 1<<14, 5000) }},
		{"uniform", func() trace.BatchStream { return NewUniform(5, 1<<12, 0.7) }},
		{"sequential", func() trace.BatchStream { return NewSequential(5, 1000, 0.5) }},
		{"spec/gcc", func() trace.BatchStream { return gcc.New(9, 1<<12) }},
	}
	sizes := []int{1, 3, 17, 255, 1021, 4093}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			batched, single := c.new(), c.new()
			ops := make([]trace.Op, sizes[len(sizes)-1])
			addrs := make([]uint64, len(ops))
			var at int
			for round := 0; round < 6; round++ {
				for _, n := range sizes {
					got := batched.NextBatch(ops[:n], addrs[:n])
					if got != n {
						t.Fatalf("NextBatch(%d) returned %d", n, got)
					}
					for i := 0; i < n; i++ {
						if want := single.Next(); ops[i] != want.Op || addrs[i] != want.Addr {
							t.Fatalf("request %d: NextBatch gave (%v, %d), Next gave (%v, %d)",
								at+i, ops[i], addrs[i], want.Op, want.Addr)
						}
					}
					at += n
				}
			}
		})
	}
}

func TestBPABounds(t *testing.T) {
	a := NewBPA(3, 1024, 4)
	for i := 0; i < 10000; i++ {
		if r := a.Next(); r.Addr >= 1024 {
			t.Fatalf("address %d out of range", r.Addr)
		}
	}
}

func TestBPADefaultRepeats(t *testing.T) {
	a := NewBPA(3, 1024, 0)
	if a.repeats != 1 {
		t.Fatalf("repeats = %d", a.repeats)
	}
}

func TestUniformCoversSpace(t *testing.T) {
	u := NewUniform(5, 64, 0.5)
	seen := make(map[uint64]bool)
	writes := 0
	for i := 0; i < 10000; i++ {
		r := u.Next()
		if r.Addr >= 64 {
			t.Fatalf("address %d out of range", r.Addr)
		}
		seen[r.Addr] = true
		if r.Op == trace.Write {
			writes++
		}
	}
	if len(seen) != 64 {
		t.Fatalf("covered %d/64 addresses", len(seen))
	}
	if writes < 4000 || writes > 6000 {
		t.Fatalf("write count %d far from ratio 0.5", writes)
	}
}

func TestSequentialWraps(t *testing.T) {
	s := NewSequential(1, 10, 1.0)
	for round := 0; round < 3; round++ {
		for want := uint64(0); want < 10; want++ {
			if r := s.Next(); r.Addr != want {
				t.Fatalf("round %d: got %d want %d", round, r.Addr, want)
			}
		}
	}
}

func TestGeneratorsPanicOnZeroLines(t *testing.T) {
	for name, f := range map[string]func(){
		"bpa":  func() { NewBPA(1, 0, 1) },
		"uni":  func() { NewUniform(1, 0, 0.5) },
		"seq":  func() { NewSequential(1, 0, 0.5) },
		"spec": func() { SpecProfiles[0].New(1, 8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSpecDeterministic(t *testing.T) {
	p, ok := ProfileByName("gcc")
	if !ok {
		t.Fatal("gcc profile missing")
	}
	a := p.New(7, 1<<22)
	b := p.New(7, 1<<22)
	for i := 0; i < 10000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestSpecProfilesDistinctUnderSameSeed(t *testing.T) {
	a := SpecProfiles[0].New(7, 1<<22)
	b := SpecProfiles[1].New(7, 1<<22)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same > 100 {
		t.Fatalf("profiles produced %d/1000 identical requests", same)
	}
}

func TestSpecAddressesInBounds(t *testing.T) {
	for _, p := range SpecProfiles {
		g := p.New(11, 1<<20)
		fp := g.Footprint()
		if fp > 1<<20 {
			t.Fatalf("%s: footprint %d exceeds space", p.Name, fp)
		}
		for i := 0; i < 20000; i++ {
			r := g.Next()
			if r.Addr >= 1<<20 {
				t.Fatalf("%s: address %d out of space", p.Name, r.Addr)
			}
		}
	}
}

func TestSpecFootprintShrinksToFit(t *testing.T) {
	p, _ := ProfileByName("lbm") // canonical 128K pages
	g := p.New(1, 1<<12)         // tiny space: 4096 lines = 64 pages
	if g.Footprint() > 1<<12 {
		t.Fatalf("footprint %d not shrunk", g.Footprint())
	}
}

func TestSpecWriteRatioRealized(t *testing.T) {
	for _, p := range SpecProfiles {
		g := p.New(13, 1<<22)
		st := trace.Collect(g, 50000)
		got := st.WriteRatio()
		if got < p.WriteRatio-0.05 || got > p.WriteRatio+0.05 {
			t.Errorf("%s: write ratio %.3f, profile %.3f", p.Name, got, p.WriteRatio)
		}
	}
}

func TestSpecLocalityClassesDiffer(t *testing.T) {
	// The concentrated writers must touch far fewer unique addresses than
	// the streaming benchmarks over the same horizon.
	hm, _ := ProfileByName("hmmer")
	lbm, _ := ProfileByName("lbm")
	const n = 200000
	hmu := trace.Collect(hm.New(17, 1<<24), n).UniqueApprox
	lbmu := trace.Collect(lbm.New(17, 1<<24), n).UniqueApprox
	if hmu*4 > lbmu {
		t.Fatalf("hmmer unique %d not << lbm unique %d", hmu, lbmu)
	}
}

func TestPhaseChangesMoveWorkingSet(t *testing.T) {
	p := Profile{Name: "phasey", Pages: 256, ZipfAlpha: 1.3, WriteRatio: 0.5, PhaseEvery: 5000, PhaseJump: 0.5}
	g := p.New(19, 1<<20)
	first := make(map[uint64]int)
	for i := 0; i < 4000; i++ {
		first[g.Next().Addr/PageLines]++
	}
	// Drain through several phase changes.
	for i := 0; i < 20000; i++ {
		g.Next()
	}
	second := make(map[uint64]int)
	for i := 0; i < 4000; i++ {
		second[g.Next().Addr/PageLines]++
	}
	// The hottest page should differ between phases.
	top := func(m map[uint64]int) uint64 {
		var best uint64
		bestN := -1
		for k, v := range m {
			if v > bestN {
				best, bestN = k, v
			}
		}
		return best
	}
	if top(first) == top(second) {
		t.Fatal("hottest page did not move across phases")
	}
}

func TestProfileByNameMiss(t *testing.T) {
	if _, ok := ProfileByName("nope"); ok {
		t.Fatal("found nonexistent profile")
	}
}

func TestNames(t *testing.T) {
	if len(Names()) != 14 {
		t.Fatalf("%d profiles, want 14", len(Names()))
	}
	sorted := SortedNames()
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] > sorted[i] {
			t.Fatal("SortedNames not sorted")
		}
	}
}

func TestPow2Helpers(t *testing.T) {
	if nextPow2(0) != 0 || nextPow2(1) != 1 || nextPow2(3) != 4 || nextPow2(4) != 4 {
		t.Fatal("nextPow2")
	}
	if prevPow2(0) != 0 || prevPow2(1) != 1 || prevPow2(3) != 2 || prevPow2(5) != 4 {
		t.Fatal("prevPow2")
	}
}

var reqSink trace.Request

// BenchmarkSpecGen draws round-robin from all 14 profiles at the line counts
// of the spec-lifetime (2^10) and trace-ipc (2^16) benchmark workloads and
// of Fig 17 at -scale small (2^22).
func BenchmarkSpecGen(b *testing.B) {
	for _, lines := range []uint64{1 << 10, 1 << 16, 1 << 22} {
		b.Run(fmt.Sprintf("lines=%d", lines), func(b *testing.B) {
			gens := make([]*Gen, len(SpecProfiles))
			for i, p := range SpecProfiles {
				gens[i] = p.New(1, lines)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reqSink = gens[i%len(gens)].Next()
			}
		})
	}
}

// BenchmarkBPA draws single requests, and 4096-request batches over the
// bpa-lifetime benchmark's 2^14 lines at the repeat counts its jobs use.
func BenchmarkBPA(b *testing.B) {
	b.Run("next", func(b *testing.B) {
		g := NewBPA(1, 1<<24, 64)
		for i := 0; i < b.N; i++ {
			reqSink = g.Next()
		}
	})
	for _, repeats := range []uint64{32, 512} {
		b.Run(fmt.Sprintf("batch/repeats=%d", repeats), func(b *testing.B) {
			g := NewBPA(1, 1<<14, repeats)
			ops := make([]trace.Op, 4096)
			addrs := make([]uint64, len(ops))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.NextBatch(ops, addrs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ops)), "ns/req")
		})
	}
}
