package rng

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical draws", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("seed 0 generator looks stuck at zero")
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(7)
	err := quick.Check(func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := r.Uint64n(n)
		return v < n
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestUint64nSmallUniform(t *testing.T) {
	r := New(11)
	const n = 10
	const draws = 100000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Errorf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestBoolExtremes(t *testing.T) {
	r := New(5)
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) returned false")
	}
	if r.Bool(-0.5) {
		t.Error("Bool(-0.5) returned true")
	}
	if !r.Bool(1.5) {
		t.Error("Bool(1.5) returned false")
	}
}

// TestUint64KnownAnswers pins the generator to its recorded outputs, so a
// rewrite of Uint64 cannot change one draw of any experiment.
func TestUint64KnownAnswers(t *testing.T) {
	for _, c := range []struct {
		seed uint64
		want [6]uint64
	}{
		{0x0, [6]uint64{0x99ec5f36cb75f2b4, 0xbf6e1f784956452a, 0x1a5f849d4933e6e0, 0x6aa594f1262d2d2c, 0xbba5ad4a1f842e59, 0xffef8375d9ebcaca}},
		{0x1, [6]uint64{0xb3f2af6d0fc710c5, 0x853b559647364cea, 0x92f89756082a4514, 0x642e1c7bc266a3a7, 0xb27a48e29a233673, 0x24c123126ffda722}},
		{0xdeadbeefcafef00d, [6]uint64{0x9e32cfb5bb93eebb, 0x16006bd9d4ac0014, 0x8ada5d6d34b6538e, 0x7c327ca32346a238, 0xc43a6d6a3492ced2, 0xdb639ecb036a9c04}},
	} {
		r := New(c.seed)
		for i, want := range c.want {
			if got := r.Uint64(); got != want {
				t.Fatalf("seed %#x: draw %d is %#x, want %#x", c.seed, i, got, want)
			}
		}
	}
}

// bernoulliProbs are the probabilities TestBernoulliMatchesBool covers:
// both no-draw sides, the extremes of the open interval, probabilities on,
// next to and between multiples of 2^-53, and the SPEC profiles' values.
var bernoulliProbs = []float64{
	-1, 0, math.Copysign(0, -1), 1, 2, math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, 1e-300, 1.0 / (1 << 53), 1.5 / (1 << 53), 3.0 / (1 << 53),
	math.Nextafter(1, 0), 0.5, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1),
	0.01, 0.04, 0.05, 0.1, 0.15, 0.25, 0.3, 0.35, 0.45, 0.55, 0.6, 0.96, 0.97,
	1.0 / 3, 2.0 / 3,
}

// TestBernoulliMatchesBool checks NewBernoulli(p) against Bool(p): on the
// integers around p·2^53 the compare must give Float64's answer, and on
// one seed both must draw the same values and decide alike.
func TestBernoulliMatchesBool(t *testing.T) {
	for _, p := range bernoulliProbs {
		b := NewBernoulli(p)
		if p > 0 && p < 1 {
			m := uint64(p * (1 << 53))
			for x := m - min(m, 2); x <= m+2 && x < 1<<53; x++ {
				if want, got := float64(x)/(1<<53) < p, x < b.below; got != want {
					t.Fatalf("p=%v: top bits %d decide %v, Float64 decides %v", p, x, got, want)
				}
			}
		}
		ref, src := New(3), New(3)
		for i := 0; i < 1000; i++ {
			if want, got := ref.Bool(p), b.Of(src); got != want {
				t.Fatalf("p=%v: trial %d is %v, Bool gives %v", p, i, got, want)
			}
		}
		if ref.Uint64() != src.Uint64() {
			t.Fatalf("p=%v: the trial and Bool drew differently", p)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(9)
	const draws = 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) frequency = %v", got)
	}
}

func TestForkIndependence(t *testing.T) {
	a := New(21)
	f := a.Fork()
	// The fork must not replay the parent's stream.
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == f.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("fork replayed %d parent draws", same)
	}
}

func TestZipfBounds(t *testing.T) {
	r := New(31)
	for _, n := range []uint64{1, 2, 100, 1 << 20} {
		for _, alpha := range []float64{0.5, 0.99, 1.0, 1.2, 2.5} {
			z := NewZipf(r, n, alpha)
			for i := 0; i < 2000; i++ {
				v := z.Next()
				if v >= n {
					t.Fatalf("Zipf(n=%d,a=%v) produced %d", n, alpha, v)
				}
			}
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(37)
	z := NewZipf(r, 1000, 1.2)
	const draws = 200000
	counts := make([]int, 1000)
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	// Rank 0 must dominate, and the head must be heavier than the tail.
	if counts[0] <= counts[10] {
		t.Errorf("rank 0 (%d) not more popular than rank 10 (%d)", counts[0], counts[10])
	}
	head, tail := 0, 0
	for i := 0; i < 10; i++ {
		head += counts[i]
	}
	for i := 990; i < 1000; i++ {
		tail += counts[i]
	}
	if head < tail*10 {
		t.Errorf("head %d not >> tail %d", head, tail)
	}
}

func TestZipfPanics(t *testing.T) {
	r := New(41)
	for _, f := range []func(){
		func() { NewZipf(r, 0, 1.0) },
		func() { NewZipf(r, 10, 0) },
		func() { NewZipf(r, 10, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

var zipfSink uint64

// BenchmarkZipfNext covers both sides of the zipfHead table cap: n = 16 and
// 1024 are settled by the table, 65536 and 2^26 partly by the closed form.
func BenchmarkZipfNext(b *testing.B) {
	for _, n := range []uint64{16, 1024, 65536, 1 << 26} {
		for _, alpha := range []float64{0.75, 1.1} {
			b.Run(fmt.Sprintf("n=%d/alpha=%v", n, alpha), func(b *testing.B) {
				z := NewZipf(New(1), n, alpha)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					zipfSink = z.Next()
				}
			})
		}
	}
}

func TestSeedStreamDeterministicAndDistinct(t *testing.T) {
	seen := make(map[uint64]bool)
	for stream := uint64(0); stream < 1024; stream++ {
		s := SeedStream(42, stream)
		if s != SeedStream(42, stream) {
			t.Fatalf("stream %d: SeedStream not deterministic", stream)
		}
		if seen[s] {
			t.Fatalf("stream %d: seed %#x collides with an earlier stream", stream, s)
		}
		seen[s] = true
	}
	// Different bases must yield different substreams.
	if SeedStream(1, 0) == SeedStream(2, 0) {
		t.Fatal("bases 1 and 2 share substream 0")
	}
}
