package workload

import (
	"fmt"
	"testing"

	"nvmwear/internal/trace"
)

// take fills the stream's next n requests in one batch.
func take(s trace.Stream, n int) []trace.Request {
	ops, addrs := make([]trace.Op, n), make([]uint64, n)
	trace.FillBatch(s, ops, addrs)
	out := make([]trace.Request, n)
	for i := range out {
		out[i] = trace.Request{Op: ops[i], Addr: addrs[i]}
	}
	return out
}

func TestRAA(t *testing.T) {
	for _, r := range take(NewRAA(42), 100) {
		if r.Op != trace.Write || r.Addr != 42 {
			t.Fatalf("RAA emitted %+v", r)
		}
	}
}

func TestBPARepeatsPrecisely(t *testing.T) {
	reqs := take(NewBPA(1, 1<<20, 8), 8000)
	prev := reqs[0]
	run := 1
	runs := make(map[uint64]int)
	for _, r := range reqs[1:] {
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

func TestBPABounds(t *testing.T) {
	for _, r := range take(NewBPA(3, 1024, 4), 10000) {
		if r.Addr >= 1024 {
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
	seen := make(map[uint64]bool)
	writes := 0
	for _, r := range take(NewUniform(5, 64, 0.5), 10000) {
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
	for i, r := range take(NewSequential(1, 10, 1.0), 30) {
		if want := uint64(i % 10); r.Addr != want {
			t.Fatalf("request %d: got %d want %d", i, r.Addr, want)
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
	a, b := take(p.New(7, 1<<22), 10000), take(p.New(7, 1<<22), 10000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestSpecProfilesDistinctUnderSameSeed(t *testing.T) {
	a, b := take(SpecProfiles[0].New(7, 1<<22), 1000), take(SpecProfiles[1].New(7, 1<<22), 1000)
	same := 0
	for i := range a {
		if a[i] == b[i] {
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
		for _, r := range take(g, 20000) {
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
		writes := 0
		for _, r := range take(p.New(13, 1<<22), 50000) {
			if r.Op == trace.Write {
				writes++
			}
		}
		got := float64(writes) / 50000
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
	unique := func(p Profile) int {
		seen := make(map[uint64]bool)
		for _, r := range take(p.New(17, 1<<24), 200000) {
			seen[r.Addr] = true
		}
		return len(seen)
	}
	hmu, lbmu := unique(hm), unique(lbm)
	if hmu*4 > lbmu {
		t.Fatalf("hmmer unique %d not << lbm unique %d", hmu, lbmu)
	}
}

func TestPhaseChangesMoveWorkingSet(t *testing.T) {
	p := Profile{Name: "phasey", Pages: 256, ZipfAlpha: 1.3, WriteRatio: 0.5, PhaseEvery: 5000, PhaseJump: 0.5}
	// The second window follows the first after several phase changes.
	reqs := take(p.New(19, 1<<20), 28000)
	first := make(map[uint64]int)
	for _, r := range reqs[:4000] {
		first[r.Addr/PageLines]++
	}
	second := make(map[uint64]int)
	for _, r := range reqs[24000:] {
		second[r.Addr/PageLines]++
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
				reqSink = gens[i%len(gens)].step()
			}
		})
	}
}

// BenchmarkBPA fills 4096-request batches over the bpa-lifetime
// benchmark's 2^14 lines at the repeat counts its jobs use.
func BenchmarkBPA(b *testing.B) {
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
